(* Reference copies of the list-walking mapping evaluator that the flat
   per-mapping view replaced: [Mapping.validate] and its helpers, the
   analytical model's [evaluate]/[refills], both samplers and the Hybrid
   mapper (whose permutation pruning materialised every order). They are
   kept unchanged except that each calls the other reference copies, the
   Hybrid mapper's default metric is the reference model's latency, and
   the reference model does not bump [model.evaluations]. The properties
   in [Test_model_equiv] pin the flat code to them bit for bit and draw for
   draw. *)

module Mapping_ref = struct
  open Mapping

  let loops_product loops d =
    List.fold_left (fun acc l -> if l.dim = d then acc * l.bound else acc) 1 loops

  let dim_product t ~upto d =
    let acc = ref 1 in
    for i = 0 to min (upto - 1) (Array.length t.levels - 1) do
      let lm = t.levels.(i) in
      acc := !acc * loops_product lm.temporal d * loops_product lm.spatial d
    done;
    !acc

  let spatial_product t i =
    List.fold_left (fun acc l -> acc * l.bound) 1 t.levels.(i).spatial

  let temporal_product t i =
    List.fold_left (fun acc l -> acc * l.bound) 1 t.levels.(i).temporal

  (* Tile extent of tensor [v] as held by buffer level [i]: the product of its
     relevant dimension tiles below [i]. IA gets the exact sliding-window
     extent ((p-1)*stride + r per axis). *)
  let tile_words arch t i v =
    let d = dim_product t ~upto:i in
    let stride = t.layer.Layer.stride in
    ignore arch;
    match v with
    | Dims.W -> float_of_int (d Dims.R * d Dims.S * d Dims.C * d Dims.K)
    | Dims.OA -> float_of_int (d Dims.P * d Dims.Q * d Dims.K * d Dims.N)
    | Dims.IA ->
      let w = ((d Dims.P - 1) * stride) + d Dims.R in
      let h = ((d Dims.Q - 1) * stride) + d Dims.S in
      float_of_int (w * h * d Dims.C * d Dims.N)

  let validate arch t =
    let nlev = Array.length t.levels in
    let violations = ref [] in
    if nlev <> Spec.level_count arch then
      (* typed, not [Invalid_argument]: validate runs inside the scheduling
         pipeline, which surfaces every failure as a [Robust.Failure.t] *)
      raise
        (Robust.Failure.Error
           (Robust.Failure.Invalid_input
              "Mapping.validate: level count mismatch with architecture"));
    List.iter
      (fun d ->
        let prod = dim_product t ~upto:nlev d in
        let expect = Layer.padded_bound t.layer d in
        if prod <> expect then violations := Bad_factorization (d, prod, expect) :: !violations)
      Dims.all_dims;
    for i = 0 to nlev - 1 do
      let used = spatial_product t i in
      let fanout = arch.Spec.levels.(i).Spec.fanout in
      if used > fanout then violations := Spatial_overflow (i, used, fanout) :: !violations
    done;
    for i = 0 to nlev - 1 do
      if i <> Spec.dram_level arch then
        List.iter
          (fun v ->
            if Spec.stores arch i v then begin
              let words = tile_words arch t i v in
              let cap = Spec.capacity_words arch i v in
              if words > cap then violations := Buffer_overflow (i, v, words, cap) :: !violations
            end)
          Dims.all_tensors
    done;
    List.rev !violations

  let is_valid arch t = validate arch t = []
end

module Model_ref = struct
  open Model

  let fi = float_of_int

  (* Storage chain of tensor v: ascending level indices where v is buffered. *)
  let storage_chain arch v =
    List.filter (fun i -> Spec.stores arch i v) (List.init (Spec.level_count arch) Fun.id)

  (* Flattened temporal loops at levels >= lo, outermost first. *)
  let flat_temporal (m : Mapping.t) ~lo =
    let acc = ref [] in
    for i = lo to Array.length m.Mapping.levels - 1 do
      (* prepend levels from inner to outer so the outermost level ends up first *)
      acc := m.Mapping.levels.(i).Mapping.temporal @ !acc
    done;
    !acc

  (* Number of times the tile of [v] held at level [lo] is replaced over the
     whole execution: the product of all flattened temporal loop bounds from
     the outermost loop down to (and including) the innermost loop relevant
     to [v]. Irrelevant loops nested inside the innermost relevant loop rescan
     the resident tile and are free. *)
  let refills m v ~lo =
    let loops = flat_temporal m ~lo in
    let rec innermost_relevant idx best = function
      | [] -> best
      | (l : Mapping.loop) :: rest ->
        let best =
          if l.Mapping.bound > 1 && Dims.model_relevant l.Mapping.dim v then idx else best
        in
        innermost_relevant (idx + 1) best rest
    in
    let cut = innermost_relevant 0 (-1) loops in
    let prod = ref 1. in
    List.iteri (fun idx (l : Mapping.loop) -> if idx <= cut then prod := !prod *. fi l.Mapping.bound) loops;
    !prod

  (* Spatial bound products over levels in [lo, hi), split by relevance. *)
  let spatial_split m v ~lo ~hi =
    let rel = ref 1 and irrel = ref 1 in
    for i = lo to hi - 1 do
      List.iter
        (fun (l : Mapping.loop) ->
          if Dims.model_relevant l.Mapping.dim v then rel := !rel * l.Mapping.bound
          else irrel := !irrel * l.Mapping.bound)
        m.Mapping.levels.(i).Mapping.spatial
    done;
    (!rel, !irrel)

  let instances m ~lo =
    let acc = ref 1 in
    for i = lo to Array.length m.Mapping.levels - 1 do
      acc := !acc * List.fold_left (fun a (l : Mapping.loop) -> a * l.Mapping.bound) 1
               m.Mapping.levels.(i).Mapping.spatial
    done;
    !acc

  (* Any temporal reduction loop (irrelevant to OA) with bound > 1 at levels
     >= lo forces read-modify-write accumulation at that storage level. *)
  let reduction_above m ~lo =
    List.exists
      (fun (l : Mapping.loop) ->
        l.Mapping.bound > 1 && not (Dims.model_relevant l.Mapping.dim Dims.OA))
      (flat_temporal m ~lo)

  let evaluate arch (m : Mapping.t) =
    let nlev = Spec.level_count arch in
    let counts =
      Array.init nlev (fun i ->
          Array.map
            (fun v -> { tile = Mapping_ref.tile_words arch m i v; fills = 0.; reads = 0.; updates = 0. })
            (Array.of_list Dims.all_tensors))
    in
    let add_fills i v x =
      let vi = Dims.tensor_index v in
      counts.(i).(vi) <- { (counts.(i).(vi)) with fills = counts.(i).(vi).fills +. x }
    in
    let add_reads i v x =
      let vi = Dims.tensor_index v in
      counts.(i).(vi) <- { (counts.(i).(vi)) with reads = counts.(i).(vi).reads +. x }
    in
    let add_updates i v x =
      let vi = Dims.tensor_index v in
      counts.(i).(vi) <- { (counts.(i).(vi)) with updates = counts.(i).(vi).updates +. x }
    in
    let noc_traffic = ref [] in
    (* Inputs and weights flow downward through their storage chains. *)
    List.iter
      (fun v ->
        let chain = storage_chain arch v in
        let rec walk = function
          | child :: (parent :: _ as rest) ->
            let tile = Mapping_ref.tile_words arch m child v in
            let refill = refills m v ~lo:child in
            let inst_child = instances m ~lo:child in
            let rel, irrel = spatial_split m v ~lo:child ~hi:parent in
            let total_fills = refill *. tile *. fi inst_child in
            add_fills child v total_fills;
            let inst_parent = instances m ~lo:parent in
            let multicast_ok =
              if parent > arch.Spec.noc_level && child <= arch.Spec.noc_level then
                arch.Spec.noc.Spec.multicast
              else true (* intra-PE distribution busses broadcast *)
            in
            let parent_reads =
              if multicast_ok then refill *. tile *. fi rel *. fi inst_parent
              else refill *. tile *. fi rel *. fi irrel *. fi inst_parent
            in
            add_reads parent v parent_reads;
            if child <= arch.Spec.noc_level && parent > arch.Spec.noc_level then
              noc_traffic :=
                (v, { tile_words = tile; steps = refill; distinct = rel; multicast = irrel })
                :: !noc_traffic;
            walk rest
          | [ _ ] | [] -> ()
        in
        walk chain)
      [ Dims.W; Dims.IA ];
    (* Outputs drain upward with in-network / in-PE reduction across spatial
       factors irrelevant to OA, and read-modify-write accumulation when a
       temporal reduction loop survives above the parent. *)
    let v = Dims.OA in
    let chain = storage_chain arch v in
    let rec walk = function
      | child :: (parent :: _ as rest) ->
        let tile = Mapping_ref.tile_words arch m child v in
        let refill = refills m v ~lo:child in
        let inst_child = instances m ~lo:child in
        let rel, irrel = spatial_split m v ~lo:child ~hi:parent in
        let drains = refill *. tile *. fi inst_child in
        (* child is read once per drain to push partial sums up *)
        add_reads child v drains;
        let inst_parent = instances m ~lo:parent in
        (* reduction collapses the spatially-irrelevant copies before the write *)
        let parent_writes = refill *. tile *. fi rel *. fi inst_parent in
        add_updates parent v parent_writes;
        if reduction_above m ~lo:parent then add_reads parent v parent_writes;
        if child <= arch.Spec.noc_level && parent > arch.Spec.noc_level then
          noc_traffic :=
            (v, { tile_words = tile; steps = refill; distinct = rel; multicast = irrel })
            :: !noc_traffic;
        walk rest
      | [ _ ] | [] -> ()
    in
    walk chain;
    (* compute *)
    let compute_cycles =
      Array.fold_left
        (fun acc lm ->
          List.fold_left (fun a (l : Mapping.loop) -> a *. fi l.Mapping.bound) acc
            lm.Mapping.temporal)
        1. m.Mapping.levels
    in
    let spatial_all = fi (instances m ~lo:0) in
    let macs = compute_cycles *. spatial_all in
    let avail =
      Array.fold_left (fun acc (l : Spec.level) -> acc * l.Spec.fanout) 1 arch.Spec.levels
    in
    let pe_utilization = spatial_all /. fi avail in
    (* Per-level transfer cycles: each buffer instance serves its own
       sub-tree in parallel, so the served word count is normalised by the
       instance count before dividing by the per-instance port bandwidth. *)
    let transfer_cycles =
      Array.init nlev (fun i ->
          let words =
            Array.fold_left (fun acc c -> acc +. c.reads +. c.updates) 0. counts.(i)
          in
          let bw =
            if i = Spec.dram_level arch then arch.Spec.dram.Spec.dram_bandwidth_words
            else arch.Spec.levels.(i).Spec.bandwidth_words
          in
          words /. fi (instances m ~lo:i) /. bw)
    in
    let latency = Array.fold_left max compute_cycles transfer_cycles in
    (* energy *)
    let level_energy =
      Array.to_list
        (Array.mapi
           (fun i per_tensor ->
             let acc =
               Array.fold_left (fun a c -> a +. c.fills +. c.reads +. c.updates) 0. per_tensor
             in
             (arch.Spec.levels.(i).Spec.lname, acc *. arch.Spec.levels.(i).Spec.energy_pj))
           counts)
    in
    let mac_energy = macs *. arch.Spec.mac_energy_pj in
    let nocspec = arch.Spec.noc in
    let avg_hops = fi (nocspec.Spec.mesh_x + nocspec.Spec.mesh_y) /. 2. in
    let noc_energy =
      List.fold_left
        (fun acc (v, tr) ->
          let bits = fi (arch.Spec.precision_bits v) in
          let flits_per_tile = Float.max 1. (Float.round (tr.tile_words *. bits /. fi nocspec.Spec.flit_bits)) in
          let links_per_group =
            if nocspec.Spec.multicast then avg_hops +. fi (tr.multicast - 1)
            else avg_hops *. fi tr.multicast
          in
          acc +. (tr.steps *. fi tr.distinct *. flits_per_tile *. links_per_group
                  *. nocspec.Spec.hop_energy_pj))
        0. !noc_traffic
    in
    let energy_breakdown = level_energy @ [ ("MAC", mac_energy); ("NoC", noc_energy) ] in
    let energy_pj = List.fold_left (fun a (_, e) -> a +. e) 0. energy_breakdown in
    {
      counts;
      compute_cycles;
      transfer_cycles;
      latency;
      energy_pj;
      energy_breakdown;
      noc_energy_pj = noc_energy;
      macs;
      pe_utilization;
      traffic = !noc_traffic;
    }
end

module Sampler_ref = struct
  type placement = { level : int; spatial : bool }

  (* Build a Mapping.t from per-factor placements, with the given per-level
     dimension order (a permutation of dims; dims absent at a level are
     skipped). *)
  let build arch layer placements order_of_level =
    let nlev = Spec.level_count arch in
    let temporal = Array.make nlev [] and spatial = Array.make nlev [] in
    (* accumulate per (level, dim) products *)
    let tacc = Array.init nlev (fun _ -> Array.make 7 1) in
    let sacc = Array.init nlev (fun _ -> Array.make 7 1) in
    List.iter
      (fun ((d, prime), pl) ->
        let di = Dims.dim_index d in
        if pl.spatial then sacc.(pl.level).(di) <- sacc.(pl.level).(di) * prime
        else tacc.(pl.level).(di) <- tacc.(pl.level).(di) * prime)
      placements;
    for i = 0 to nlev - 1 do
      let order = order_of_level i in
      temporal.(i) <-
        List.filter_map
          (fun d ->
            let b = tacc.(i).(Dims.dim_index d) in
            if b > 1 then Some { Mapping.dim = d; bound = b } else None)
          order;
      spatial.(i) <-
        List.filter_map
          (fun d ->
            let b = sacc.(i).(Dims.dim_index d) in
            if b > 1 then Some { Mapping.dim = d; bound = b } else None)
          Dims.all_dims
    done;
    Mapping.make layer
      (Array.init nlev (fun i -> { Mapping.temporal = temporal.(i); spatial = spatial.(i) }))

  let random_order rng =
    let a = Array.of_list Dims.all_dims in
    Prim.Rng.shuffle rng a;
    Array.to_list a

  let raw rng arch layer =
    let nlev = Spec.level_count arch in
    (* Uniform over the paper's full configuration space: every prime factor
       independently picks a level and a spatial/temporal column — including
       spatial columns at levels with no spatial resources, which Eq. 4 then
       rejects. This is what makes uniform sampling find so few valid
       schedules (Table VI). *)
    let placements =
      List.map
        (fun (d, prime) ->
          let level = Prim.Rng.int rng nlev in
          let spatial = Prim.Rng.bool rng in
          ((d, prime), { level; spatial }))
        (Layer.factors layer)
    in
    let orders = Array.init nlev (fun _ -> random_order rng) in
    build arch layer placements (fun i -> orders.(i))

  let valid ?(max_attempts = 50) rng arch layer =
    if Robust.Fault.fire "sampler.valid" then None
    else
    let nlev = Spec.level_count arch in
    let dram = Spec.dram_level arch in
    let try_once () =
      let factors = Array.of_list (Layer.factors layer) in
      Prim.Rng.shuffle rng factors;
      let placements = ref [] in
      let spatial_room = Array.map (fun l -> l.Spec.fanout) arch.Spec.levels in
      let ok = ref true in
      Array.iter
        (fun (d, prime) ->
          if !ok then begin
            (* candidate slots, tried in random order; DRAM-temporal always fits *)
            let slots =
              List.concat_map
                (fun level ->
                  let t = [ { level; spatial = false } ] in
                  if arch.Spec.levels.(level).Spec.fanout >= prime * 1
                     && spatial_room.(level) >= prime
                  then { level; spatial = true } :: t
                  else t)
                (List.init nlev Fun.id)
            in
            let slots = Array.of_list slots in
            Prim.Rng.shuffle rng slots;
            let placed = ref false in
            Array.iter
              (fun slot ->
                if not !placed then begin
                  let candidate = ((d, prime), slot) :: !placements in
                  let m = build arch layer candidate (fun _ -> Dims.all_dims) in
                  (* partial mapping: only capacity/fanout checks are meaningful *)
                  let feasible =
                    List.for_all
                      (function
                        | Mapping.Bad_factorization _ -> true
                        | Mapping.Spatial_overflow _ | Mapping.Buffer_overflow _ -> false)
                      (Mapping_ref.validate arch m)
                  in
                  if feasible then begin
                    placements := candidate;
                    if slot.spatial then
                      spatial_room.(slot.level) <- spatial_room.(slot.level) / prime;
                    placed := true
                  end
                end)
              slots;
            if not !placed then
              (* capacity exhausted everywhere below: fall back to DRAM *)
              placements := ((d, prime), { level = dram; spatial = false }) :: !placements
          end)
        factors;
      let orders = Array.init nlev (fun _ -> random_order rng) in
      let m = build arch layer !placements (fun i -> orders.(i)) in
      if Mapping_ref.is_valid arch m then Some m else None
    in
    let rec loop k = if k = 0 then None else match try_once () with Some m -> Some m | None -> loop (k - 1) in
    loop max_attempts
end

module Hybrid_ref = struct
  (* Distinct orders of the dims present at the NoC-boundary temporal levels;
     the same order is applied at every boundary level (Timeloop's pruning
     collapses permutations that only reorder unit loops). *)
  let noc_orders arch (m : Mapping.t) ~cap rng =
    let noc = arch.Spec.noc_level in
    let lvls =
      List.init (Spec.level_count arch - noc) (fun k -> noc + k)
    in
    let present =
      List.sort_uniq compare
        (List.concat_map
           (fun i ->
             List.filter_map
               (fun (l : Mapping.loop) ->
                 if l.Mapping.bound > 1 then Some l.Mapping.dim else None)
               m.Mapping.levels.(i).Mapping.temporal)
           lvls)
    in
    let rec permutations = function
      | [] -> [ [] ]
      | l ->
        List.concat_map
          (fun x -> List.map (fun rest -> x :: rest) (permutations (List.filter (( <> ) x) l)))
          l
    in
    let all = Array.of_list (permutations present) in
    Prim.Rng.shuffle rng all;
    let n = min cap (Array.length all) in
    (lvls, Array.to_list (Array.sub all 0 n))

  let with_order (m : Mapping.t) lvls order =
    let levels =
      Array.mapi
        (fun i lm ->
          if List.mem i lvls then
            { lm with
              Mapping.temporal =
                List.filter_map
                  (fun d ->
                    List.find_opt (fun (l : Mapping.loop) -> l.Mapping.dim = d)
                      lm.Mapping.temporal)
                  order }
          else lm)
        m.Mapping.levels
    in
    Mapping.make m.Mapping.layer levels

  let search ?(threads = 32) ?(termination = 500) ?(perms_per_factorization = 24)
      ?(metric = fun arch m -> (Model_ref.evaluate arch m).Model.latency) rng arch layer =
    let t0 = Unix.gettimeofday () in
    let best = ref None and best_metric = ref infinity in
    let valid = ref 0 and samples = ref 0 in
    for _thread = 1 to threads do
      let trng = Prim.Rng.split rng in
      let non_improving = ref 0 in
      while !non_improving < termination do
        incr samples;
        match Sampler_ref.valid ~max_attempts:3 trng arch layer with
        | None -> non_improving := !non_improving + 1
        | Some base ->
          let lvls, orders = noc_orders arch base ~cap:perms_per_factorization trng in
          List.iter
            (fun order ->
              if !non_improving < termination then begin
                let m = with_order base lvls order in
                incr samples;
                if Mapping_ref.is_valid arch m then begin
                  incr valid;
                  let v = metric arch m in
                  if v < !best_metric -. 1e-9 then begin
                    best_metric := v;
                    best := Some m;
                    non_improving := 0
                  end
                  else incr non_improving
                end
              end)
            orders
      done
    done;
    {
      Baseline.best = !best;
      best_metric = !best_metric;
      samples = !samples;
      valid = !valid;
      elapsed = Unix.gettimeofday () -. t0;
    }
end
