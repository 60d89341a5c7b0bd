let dims = Array.of_list Dims.all_dims

(* The mapping with per-(level, dim) temporal and spatial products
   [tacc]/[sacc] ([7*level + dim index]). Each level's temporal loops follow
   a fresh random order of the dims, drawn level by level from the
   innermost (dims whose product is 1 are skipped); spatial loops follow
   dim index order. *)
let build rng layer ~nlev tacc sacc =
  let order = Array.copy dims in
  let loops acc o perm =
    let l = ref [] in
    for j = 6 downto 0 do
      let di = Dims.dim_index perm.(j) in
      let b = acc.(o + di) in
      if b > 1 then l := { Mapping.dim = perm.(j); bound = b } :: !l
    done;
    !l
  in
  Mapping.make layer
    (Array.init nlev (fun i ->
         Array.blit dims 0 order 0 7;
         Prim.Rng.shuffle rng order;
         let temporal = loops tacc (7 * i) order in
         { Mapping.temporal; spatial = loops sacc (7 * i) dims }))

let raw rng arch layer =
  let nlev = Spec.level_count arch in
  (* Uniform over the paper's full configuration space: every prime factor
     independently picks a level and a spatial/temporal column — including
     spatial columns at levels with no spatial resources, which Eq. 4 then
     rejects. This is what makes uniform sampling find so few valid
     schedules (Table VI). *)
  let tacc = Array.make (7 * nlev) 1 and sacc = Array.make (7 * nlev) 1 in
  List.iter
    (fun (d, prime) ->
      let level = Prim.Rng.int rng nlev in
      let acc = if Prim.Rng.bool rng then sacc else tacc in
      let k = (7 * level) + Dims.dim_index d in
      acc.(k) <- acc.(k) * prime)
    (Layer.factors layer);
  build rng layer ~nlev tacc sacc

(* A [None] from {!valid}: every attempt failed, or the [sampler.valid]
   fault point stood in for that. *)
let m_exhausted = Telemetry.Metrics.counter "sampler.valid.exhausted"

let valid ?(max_attempts = 50) rng arch layer =
  let nlev = Spec.level_count arch in
  let levels = List.init nlev Fun.id in
  let factors = Array.of_list (Layer.factors layer) in
  let caps = Mapping.capacities arch and stride = layer.Layer.stride in
  let empty = Mapping.make layer (Array.make nlev { Mapping.temporal = []; spatial = [] }) in
  let try_once () =
    let factors = Array.copy factors in
    Prim.Rng.shuffle rng factors;
    let tacc = Array.make (7 * nlev) 1 and sacc = Array.make (7 * nlev) 1 in
    (* the partial mapping's dim and spatial products, in step with
       [tacc]/[sacc]; only its fanout and capacity checks are meaningful *)
    let vw = Mapping.view empty in
    let spatial_room = Array.map (fun l -> l.Spec.fanout) arch.Spec.levels in
    (* multiply [prime] into slot [2*level + spatial], or divide it back out *)
    let place op slot di prime =
      let level = slot / 2 and spatial = slot land 1 = 1 in
      let acc = if spatial then sacc else tacc in
      acc.((7 * level) + di) <- op acc.((7 * level) + di) prime;
      if spatial then vw.Mapping.sprod.(level) <- op vw.Mapping.sprod.(level) prime;
      for b = level + 1 to nlev do
        vw.Mapping.cum.((7 * b) + di) <- op vw.Mapping.cum.((7 * b) + di) prime
      done
    in
    let fits () =
      match Mapping.iter_overflows arch caps ~stride vw (fun _ -> raise_notrace Exit) with
      | () -> true
      | exception Exit -> false
    in
    Array.iter
      (fun (d, prime) ->
        let di = Dims.dim_index d in
        (* candidate slots, tried in random order; DRAM-temporal always fits *)
        let slots =
          Array.of_list
            (List.concat_map
               (fun level ->
                 if spatial_room.(level) >= prime then [ (2 * level) + 1; 2 * level ]
                 else [ 2 * level ])
               levels)
        in
        Prim.Rng.shuffle rng slots;
        (* place into the first slot that fits, undoing each that does not *)
        match
          Array.find_opt
            (fun slot ->
              place ( * ) slot di prime;
              fits () || (place ( / ) slot di prime; false))
            slots
        with
        | Some slot when slot land 1 = 1 ->
          spatial_room.(slot / 2) <- spatial_room.(slot / 2) / prime
        | Some _ -> ()
        | None ->
          (* capacity exhausted everywhere below: fall back to DRAM *)
          place ( * ) (2 * Spec.dram_level arch) di prime)
      factors;
    let m = build rng layer ~nlev tacc sacc in
    if Mapping.is_valid arch m then Some m else None
  in
  let rec loop k =
    if k = 0 then None else match try_once () with Some m -> Some m | None -> loop (k - 1)
  in
  let r = if Robust.Fault.fire "sampler.valid" then None else loop max_attempts in
  if Option.is_none r then Telemetry.Metrics.incr m_exhausted;
  r
