(* The four workloads. Each builds its inputs from the seed at set-up, does
   a fixed amount of work per timed pass through the program's public entry
   points, and checks every output of every pass. See README.md for why
   each workload exists and which layer it stresses. *)

let arch = Spec.baseline

(* A far-away safety net: every solve must end on its node budget or on a
   proof long before this. A solve that ends on the clock is a failure, so
   wall times measure solver work and never the budget. *)
let time_limit = 60.

let two_stage_nodes = 3000
let joint_nodes = 10

(* batch_two_stage's domain pool: two domains on every host, so the work
   split does not depend on the machine. *)
let jobs = 2

(* fig10 settings (lib/exp/exp_nocsim.ml) *)
let noc_max_steps = 24
let noc_max_cycles = 30_000_000

(* Shapes whose two-stage schedules noc_fig10 simulates: DRAM-bound
   (1_56_64_64_1, 1_56_256_64_1), extrapolated from a sampled prefix
   (7_112_3_64_2), and mesh-congested (1_14_1024_256_1, 1_14_1024_512_1,
   3_14_256_256_2). *)
let noc_layers =
  [ "1_56_64_64_1"; "1_56_256_64_1"; "7_112_3_64_2"; "1_14_1024_256_1"; "1_14_1024_512_1";
    "3_14_256_256_2" ]

let mapping_path name = Filename.concat "perfbench/mappings" (name ^ ".map")

(* search_baselines folds the seed onto this many RNG streams, each with
   recorded outcomes, so every run is checked against a digest. *)
let baseline_slots = 32

let now = Unix.gettimeofday

type pass = {
  wall : float;  (** seconds of the timed region *)
  item_s : float list;  (** seconds per item *)
  failures : string list;  (** one line per failed item *)
  attempted : int;  (** items *)
  latencies : float list;  (** analytical-model latency per schedule, cycles *)
  extras : (string * float) list;  (** workload-specific quality and host-speed figures *)
}

type traced = {
  untraced : pass;  (** the workload's pass, with telemetry off *)
  layers : (string * float) list;  (** per-layer metrics *)
  trace_attempted : int;  (** checked item runs beyond [untraced] *)
  trace_failures : string list;
}

type t = { pass : unit -> pass; traced : unit -> traced }

let shuffled seed xs =
  let a = Array.of_list xs in
  Prim.Rng.shuffle (Prim.Rng.create seed) a;
  Array.to_list a

let resnet50_shapes () =
  List.map (fun ((e : Network.entry), _) -> e.Network.layer) (Network.distinct Network.resnet50)

let ratio a b = if b > 0. then a /. b else 0.
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let geomean = function [] -> 0. | xs -> Prim.Stats.geomean xs

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One pass over [items]: a host-speed probe before each item, outside its
   timing; the pass's wall time is the sum of the item times. *)
let timed_items f items =
  let results =
    List.map
      (fun x ->
        Calib.sample ();
        timed (fun () -> f x))
      items
  in
  (results, sum snd results)

(* ---- telemetry for the traced pass ------------------------------------ *)

let ring_capacity = 1 lsl 18

let tracing on = Telemetry.Sink.set (if on then Telemetry.Sink.Memory else Telemetry.Sink.Null)

let span name f = Telemetry.Trace.with_span ~cat:"perfbench" name f

(* Span totals (seconds) by name; the profile table survives ring overwrite. *)
let span_totals () = List.map (fun (n, _, t) -> (n, t)) (Telemetry.Trace.profile_entries ())

let span_s spans name = Option.value ~default:0. (List.assoc_opt name spans)
let since before after name = span_s after name -. span_s before name

let counter snap name = float_of_int (Telemetry.Metrics.counter_value snap name)

(* Runs each item untraced and then traced, back to back, so drifts in
   host speed hit both sides alike; the program's counters and spans are
   armed only around the traced side. Returns per item
   [((untraced result, s), (traced result, s))], and the allocation, major
   collections (both of the untraced side) and tracing overhead. *)
let paired items ~untraced ~traced =
  Telemetry.Trace.set_capacity ring_capacity;
  Telemetry.Metrics.reset ();
  Telemetry.Trace.reset ();
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let alloc = ref 0. and majors = ref 0 in
  let rs =
    List.map
      (fun x ->
        let g0 = Gc.quick_stat () in
        let u = timed (fun () -> untraced x) in
        let g1 = Gc.quick_stat () in
        alloc := !alloc +. words g1 -. words g0;
        majors := !majors + g1.major_collections - g0.major_collections;
        tracing true;
        let t = timed (fun () -> traced x (fst u)) in
        tracing false;
        (u, t))
      items
  in
  let seconds side = sum (fun r -> snd (side r)) rs in
  ( rs,
    [ ("gc.allocated_mb", !alloc *. float_of_int (Sys.word_size / 8) /. 1e6);
      ("gc.major_collections", float_of_int !majors);
      ("trace.overhead_frac", ratio (seconds snd) (seconds fst) -. 1.) ] )

(* The untraced side of [paired] as one pass's [(results, wall)]. *)
let untraced_side rs = (List.map fst rs, sum (fun (u, _) -> snd u) rs)

(* ---- checks shared by the solver workloads ---------------------------- *)

let schedule_fields mapping (objective : Cosa.objective_breakdown) =
  [ Golden.mapping_md5 mapping; Golden.hex objective.Cosa.total ]

(* At most one line per item, so failure lines count failed items. *)
let problems key checks =
  match List.filter_map Fun.id checks with
  | [] -> []
  | whys -> [ key ^ ": " ^ String.concat "; " whys ]

let when_ cond why = if cond then Some why else None

(* Set-up ends with one checked item of untimed work; a failure there stops the run. *)
let warm_up = function
  | [] -> ()
  | failures -> failwith ("warm-up: " ^ String.concat "; " failures)

(* A solve that stops below its node budget without a proof stopped on the clock. *)
let clock_bound ~node_limit ~nodes status = nodes < node_limit && status <> Milp.Bb.Optimal

(* Per-layer figures of the stage-split replica: [spans] and [snap] cover
   the replica only. *)
let solver_layers snap spans (outs : Replica.outcome list) =
  let s = span_s spans and c = counter snap in
  let n = float_of_int (List.length outs) in
  let mean f = ratio (sum f outs) n in
  let bb_s = s "milp.bb" and simplex_s = s "simplex.solve" in
  let gap (o : Replica.outcome) =
    let g =
      Float.abs (o.bb.Milp.Bb.obj -. o.bb.Milp.Bb.bound)
      /. Float.max 1. (Float.abs o.bb.Milp.Bb.obj)
    in
    if Float.is_finite g then g else 1.
  in
  let refactorizations = c "simplex.refactorizations" in
  [ ("core.build_s", s "core.build"); ("core.mip_start_s", s "core.mip_start");
    ("core.decode_s", s "core.decode");
    ("core.repairs", sum (fun (o : Replica.outcome) -> if o.repaired then 1. else 0.) outs);
    ("core.lp_rows", mean (fun (o : Replica.outcome) -> float_of_int o.lp_rows));
    ("bb.solve_s", bb_s); ("bb.self_s", bb_s -. simplex_s); ("bb.nodes", c "bb.nodes");
    ("bb.nodes_per_s", ratio (c "bb.nodes") bb_s); ("bb.gap_mean", mean gap);
    ("bb.incumbents", c "bb.incumbents"); ("bb.prune.bound", c "bb.prune.bound");
    ("bb.prune.gap", c "bb.prune.gap"); ("simplex.solve_s", simplex_s);
    ("simplex.solves", c "simplex.solves");
    ( "simplex.iterations",
      c "simplex.phase1_iterations" +. c "simplex.phase2_iterations"
      +. c "simplex.dual_iterations" );
    ("simplex.warm_frac", ratio (c "simplex.warm_solves") (c "simplex.solves"));
    ("simplex.warm_fallbacks", c "simplex.warm_fallbacks");
    ("lu.refactorizations", refactorizations); ("lu.eta_updates", c "simplex.eta_updates");
    ( "lu.factor_cache_hit_frac",
      ratio (c "simplex.factor_cache_hits") (c "simplex.factor_cache_hits" +. refactorizations) );
    ("lu.factor_extensions", c "simplex.factor_extensions");
    ("certify.lp_s", s "certify.lp"); ("certify.mapping_s", s "certify.mapping");
    ("amodel.evaluations", c "model.evaluations");
    ( "proved_frac",
      mean (fun (o : Replica.outcome) -> if o.bb.Milp.Bb.status = Milp.Bb.Optimal then 1. else 0.) )
  ]

(* Run the replica on [layer] and hold it to the mapping and objective the
   public entry point produced for the same shape. Each replica runs on a
   fresh domain: the simplex factor cache is per domain, and a cold one
   makes the LU counts independent of what the process solved before. *)
let replicate ~joint ~node_limit layer ~mapping ~(objective : Cosa.objective_breakdown) =
  let key = Layer.key layer in
  match
    Domain.join
      (Domain.spawn (fun () -> Replica.schedule ~joint ~node_limit ~time_limit arch layer))
  with
  | Error e -> (None, [ key ^ ": replica: " ^ e ])
  | Ok o ->
    ( Some o,
      problems key
        [ when_
            (Mapping_io.to_string o.Replica.mapping <> Mapping_io.to_string mapping)
            "replica mapping differs from the public entry point's";
          when_
            (Golden.hex o.Replica.objective.Cosa.total <> Golden.hex objective.Cosa.total)
            "replica objective differs from the public entry point's";
          when_ (not o.Replica.certified) "replica schedule failed certification";
          when_
            (clock_bound ~node_limit ~nodes:o.Replica.bb.Milp.Bb.nodes o.Replica.bb.Milp.Bb.status)
            "replica solve stopped on the clock" ] )

let replicate_all ~joint ~node_limit served =
  let results =
    List.map
      (fun (layer, mapping, objective) -> replicate ~joint ~node_limit layer ~mapping ~objective)
      served
  in
  (List.filter_map fst results, List.concat_map snd results)

(* ---- batch_two_stage --------------------------------------------------- *)

let batch_config () =
  Serve.Service.config ~strategy:Cosa.Two_stage ~node_limit:two_stage_nodes ~time_limit ~jobs arch

let schedule_joint l = Cosa.schedule ~strategy:Cosa.Joint ~node_limit:joint_nodes ~time_limit arch l

let batch_two_stage seed =
  let golden = Golden.load "batch_two_stage" in
  let net =
    { Network.resnet50 with
      Network.entries = shuffled seed Network.resnet50.Network.entries }
  in
  let cfg = batch_config () in
  (* a fresh schedule cache per pass, so every distinct shape is solved *)
  let serve net =
    Serve.Service.schedule_network ~cache:(Serve.Schedule_cache.create ~capacity:64 ()) cfg net
  in
  let run () = timed (fun () -> serve net) in
  let check_layer (lr : Serve.Service.layer_report) =
    let key = Layer.key lr.Serve.Service.layer in
    match lr.Serve.Service.served with
    | Error f -> [ key ^ ": " ^ Robust.Failure.to_string f ]
    | Ok s ->
      problems key
        [ (* also catches a cache hit, so every pass really solves *)
          when_
            (s.Serve.Service.origin <> Serve.Service.Solved Cosa.Milp_two_stage)
            ("served by " ^ Serve.Service.origin_to_string s.Serve.Service.origin);
          when_ (s.Serve.Service.verdict <> "ok") ("certificate " ^ s.Serve.Service.verdict);
          when_ (s.Serve.Service.fallback_chain <> []) "fell down the degradation ladder";
          (* the clock is the only thing that can stop a solve at [time_limit] *)
          when_ (s.Serve.Service.solve_time >= time_limit) "solve stopped on the clock";
          Golden.check golden key (schedule_fields s.Serve.Service.mapping s.Serve.Service.objective)
        ]
  in
  let to_pass ((r : Serve.Service.report), wall) =
    let layers = r.Serve.Service.layers in
    let served =
      List.filter_map (fun lr -> Result.to_option lr.Serve.Service.served) layers
    in
    { wall;
      item_s = List.map (fun s -> s.Serve.Service.solve_time) served;
      failures = List.concat_map check_layer layers;
      attempted = List.length layers;
      latencies = List.map (fun lr -> lr.Serve.Service.latency) layers;
      extras = [] }
  in
  (* warm-up on the smallest shape, so first-call costs land in set-up *)
  let fc1000 =
    { Network.nname = "fc1000"; entries = [ { Network.layer = Zoo.find "fc1000"; repeats = 1 } ] }
  in
  warm_up (List.concat_map check_layer (serve fc1000).Serve.Service.layers);
  (* Two untraced/traced pass pairs, then the stage-split replica of every
     solve of the last traced pass. *)
  let traced () =
    let rs, figures =
      paired [ (); () ] ~untraced:(fun () -> serve net) ~traced:(fun () _ ->
          Telemetry.Metrics.reset ();
          let s0 = span_totals () in
          let r = span "serve.schedule_network" (fun () -> serve net) in
          (r, Telemetry.Metrics.snapshot (), since s0 (span_totals ()) "serve.schedule_network"))
    in
    let untraced = to_pass (fst (List.hd rs)) in
    let checked =
      List.tl (List.concat_map (fun (u, ((r, _, _), t)) -> [ to_pass u; to_pass (r, t) ]) rs)
    in
    let (_, ((r, snap, schedule_network_s), _)) = List.nth rs 1 in
    let queue_wait =
      match List.assoc_opt "serve.pool.queue_wait_s" snap.Telemetry.Metrics.histograms with
      | Some h -> h.Telemetry.Metrics.sum
      | None -> 0.
    in
    let served =
      List.filter_map
        (fun (lr : Serve.Service.layer_report) ->
          match lr.Serve.Service.served with
          | Ok s -> Some (lr.Serve.Service.layer, s.Serve.Service.mapping, s.Serve.Service.objective)
          | Error _ -> None)
        r.Serve.Service.layers
    in
    tracing true;
    Telemetry.Metrics.reset ();
    let spans0 = span_totals () in
    let outs, replica_failures = replicate_all ~joint:false ~node_limit:two_stage_nodes served in
    let snap2 = Telemetry.Metrics.snapshot () and spans1 = span_totals () in
    tracing false;
    let replica_spans = List.map (fun (n, _) -> (n, since spans0 spans1 n)) spans1 in
    let same_work =
      List.filter_map
        (fun name ->
          when_
            (counter snap name <> counter snap2 name)
            (Printf.sprintf "replica %s %.0f, service %.0f" name (counter snap2 name)
               (counter snap name)))
        [ "bb.nodes"; "simplex.solves" ]
    in
    (* allocation and collections per untraced pass *)
    let figures =
      List.map (fun (k, v) -> if k = "trace.overhead_frac" then (k, v) else (k, v /. 2.)) figures
    in
    { untraced;
      layers =
        [ ("serve.schedule_network_s", schedule_network_s); ("serve.pool.queue_wait_s", queue_wait);
          ( "serve.distinct_frac",
            ratio (float_of_int r.Serve.Service.distinct) (float_of_int r.Serve.Service.instances) );
          ("serve.cache.miss", counter snap "serve.cache.miss") ]
        @ solver_layers snap2 replica_spans outs @ figures;
      trace_attempted = List.fold_left (fun a p -> a + p.attempted) (List.length served) checked;
      trace_failures =
        List.concat_map (fun p -> p.failures) checked @ replica_failures @ same_work }
  in
  { pass = (fun () -> to_pass (run ())); traced }

(* ---- joint_mip --------------------------------------------------------- *)

let joint_mip seed =
  let golden = Golden.load "joint_mip" in
  let shapes = shuffled seed (resnet50_shapes ()) in
  let run () = timed_items schedule_joint shapes in
  let check l (r : Cosa.result) =
    let key = Layer.key l in
    problems key
      [ when_ (r.Cosa.source <> Cosa.Milp_joint) ("served by " ^ Cosa.source_to_string r.Cosa.source);
        when_ (r.Cosa.certification <> Cosa.Cert_ok)
          (Cosa.certification_to_string r.Cosa.certification);
        when_ (r.Cosa.fallback_chain <> []) "fell down the degradation ladder";
        when_
          (clock_bound ~node_limit:joint_nodes ~nodes:r.Cosa.nodes r.Cosa.solver_status)
          "solve stopped on the clock";
        Golden.check golden key (schedule_fields r.Cosa.mapping r.Cosa.objective) ]
  in
  let fc1000 = Zoo.find "fc1000" in
  warm_up (check fc1000 (schedule_joint fc1000));
  let to_pass (results, wall) =
    let rs = List.map fst results in
    { wall;
      item_s = List.map snd results;
      failures = List.concat (List.map2 check shapes rs);
      attempted = List.length shapes;
      latencies = List.map (fun (r : Cosa.result) -> (Model.evaluate arch r.Cosa.mapping).Model.latency) rs;
      extras =
        [ ( "proved_frac",
            ratio
              (sum (fun (r : Cosa.result) -> if r.Cosa.solver_status = Milp.Bb.Optimal then 1. else 0.) rs)
              (float_of_int (List.length rs)) ) ] }
  in
  (* each shape through Cosa.schedule untraced, then through the replica *)
  let traced () =
    let rs, figures =
      paired shapes ~untraced:schedule_joint ~traced:(fun l (r : Cosa.result) ->
          replicate ~joint:true ~node_limit:joint_nodes l ~mapping:r.Cosa.mapping
            ~objective:r.Cosa.objective)
    in
    let replicas = List.map (fun (_, (o, _)) -> o) rs in
    { untraced = to_pass (untraced_side rs);
      layers =
        solver_layers (Telemetry.Metrics.snapshot ()) (span_totals ())
          (List.filter_map fst replicas)
        @ figures;
      trace_attempted = List.length shapes;
      trace_failures = List.concat_map snd replicas }
  in
  { pass = (fun () -> to_pass (run ())); traced }

(* ---- noc_fig10 --------------------------------------------------------- *)

let stats_fields (s : Noc_sim.stats) =
  Golden.hex s.Noc_sim.latency
  :: List.map string_of_int
       [ s.Noc_sim.simulated_cycles; s.Noc_sim.simulated_steps; s.Noc_sim.total_steps;
         Bool.to_int s.Noc_sim.sampled; s.Noc_sim.flit_hops; s.Noc_sim.dram_busy_cycles;
         s.Noc_sim.packets; s.Noc_sim.compute_cycles_per_step; s.Noc_sim.flits_injected;
         s.Noc_sim.flits_ejected; s.Noc_sim.flits_forked ]

let simulate m = Noc_sim.simulate_r ~max_steps:noc_max_steps ~max_cycles:noc_max_cycles arch m

(* The committed mappings, each certified before use; raises on a bad one. *)
let load_noc_mappings () =
  List.map
    (fun name ->
      match Mapping_io.load (mapping_path name) with
      | Error e -> failwith (Printf.sprintf "%s: %s" (mapping_path name) e)
      | Ok m -> (
        match Certify.Mapping_cert.check arch m with
        | Certify.Certificate.Certified -> (name, m)
        | cert ->
          failwith
            (Printf.sprintf "%s: %s" (mapping_path name) (Certify.Certificate.to_string cert))))
    noc_layers

let noc_fig10 seed =
  let golden = Golden.load "noc_fig10" in
  let mappings = shuffled seed (load_noc_mappings ()) in
  let model_latency = List.map (fun (_, m) -> (Model.evaluate arch m).Model.latency) mappings in
  (* warm-up: the first NoC step of the first committed mapping *)
  warm_up
    (let name = List.hd noc_layers in
     match Noc_sim.simulate_r ~max_steps:1 ~max_cycles:noc_max_cycles arch (List.assoc name mappings) with
     | Error f -> [ name ^ ": " ^ Robust.Failure.to_string f ]
     | Ok s ->
       if Certify.Certificate.is_certified (Certify.Noc_cert.check s) then []
       else [ name ^ ": flits not conserved" ]);
  let run () = timed_items (fun (_, m) -> simulate m) mappings in
  let check (name, _) res =
    match res with
    | Error f -> [ name ^ ": " ^ Robust.Failure.to_string f ]
    | Ok s ->
      problems name
        [ (match Certify.Noc_cert.check s with
           | Certify.Certificate.Certified -> None
           | cert -> Some (Certify.Certificate.to_string cert));
          Golden.check golden name (stats_fields s) ]
  in
  let to_pass (results, wall) =
    let stats = List.filter_map (fun (r, _) -> Result.to_option r) results in
    let cycles = sum (fun s -> float_of_int s.Noc_sim.simulated_cycles) stats in
    { wall;
      item_s = List.map snd results;
      failures = List.concat (List.map2 check mappings (List.map fst results));
      attempted = List.length mappings;
      latencies = model_latency;
      extras =
        [ ("sim_latency_gm_cycles", geomean (List.map (fun s -> s.Noc_sim.latency) stats));
          ("sim_kcycles_per_s", cycles /. wall /. 1e3) ] }
  in
  let traced () =
    let rs, figures =
      paired mappings
        ~untraced:(fun (_, m) -> simulate m)
        ~traced:(fun (_, m) _ -> span "noc.simulate_r" (fun () -> simulate m))
    in
    let traced_side = List.map snd rs in
    let stats = List.filter_map (fun (r, _) -> Result.to_option r) traced_side in
    let snap = Telemetry.Metrics.snapshot () in
    let sim_s = span_s (span_totals ()) "noc.simulate_r" in
    let total f = sum (fun s -> float_of_int (f s)) stats in
    let cycles = total (fun s -> s.Noc_sim.simulated_cycles) in
    { untraced = to_pass (untraced_side rs);
      layers =
        [ ("noc.simulate_s", sim_s); ("noc.host_ns_per_cycle", ratio sim_s cycles *. 1e9);
          ("noc.sim_cycles", cycles); ("noc.packets", total (fun s -> s.Noc_sim.packets));
          ("noc.flits_injected", total (fun s -> s.Noc_sim.flits_injected));
          ("noc.dram_busy_cycles", total (fun s -> s.Noc_sim.dram_busy_cycles));
          ("noc.dram_row_hit_frac", ratio (counter snap "dram.row_hits") (counter snap "dram.requests"));
          ("amodel.evaluations", counter snap "model.evaluations") ]
        @ figures;
      trace_attempted = List.length mappings;
      trace_failures = (to_pass (traced_side, sum snd traced_side)).failures }
  in
  { pass = (fun () -> to_pass (run ())); traced }

(* ---- search_baselines -------------------------------------------------- *)

let baseline_slot seed = ((seed mod baseline_slots) + baseline_slots) mod baseline_slots

(* The Random and Hybrid RNG seeds for one shape in one slot. *)
let baseline_seeds slot l =
  let s = Hashtbl.hash (slot, Layer.key l) in
  (s, Hashtbl.hash (s, "hybrid"))

let outcome_fields (o : Baseline.outcome) =
  [ string_of_int o.Baseline.samples; string_of_int o.Baseline.valid;
    Golden.hex o.Baseline.best_metric;
    (match o.Baseline.best with Some m -> Golden.mapping_md5 m | None -> "-") ]

let search_pair ?(wrap = fun _ f -> f ()) slot l =
  let rs, hs = baseline_seeds slot l in
  let r = wrap "mappers.random" (fun () -> Random_mapper.search (Prim.Rng.create rs) arch l) in
  let h = wrap "mappers.hybrid" (fun () -> Hybrid_mapper.search (Prim.Rng.create hs) arch l) in
  (r, h)

let baseline_record slot l =
  let r, h = search_pair slot l in
  Golden.line (Printf.sprintf "%d/%s" slot (Layer.key l)) (outcome_fields r @ outcome_fields h)

let search_baselines seed =
  let golden = Golden.load "search_baselines" in
  let slot = baseline_slot seed in
  let shapes = shuffled seed (resnet50_shapes ()) in
  (* warm-up: slot 0's Random search on the smallest shape, the same work
     for every seed *)
  warm_up
    (let l = Zoo.find "fc1000" in
     let key = Printf.sprintf "0/%s" (Layer.key l) in
     let r = Random_mapper.search (Prim.Rng.create (fst (baseline_seeds 0 l))) arch l in
     let recorded = Option.value ~default:[] (Hashtbl.find_opt golden key) in
     if List.filteri (fun i _ -> i < 4) recorded = outcome_fields r then []
     else [ key ^ ": random search differs from its digest" ]);
  let run () = timed_items (search_pair slot) shapes in
  let check_outcome which (o : Baseline.outcome) =
    match o.Baseline.best with
    | None -> Some (which ^ " found no schedule")
    | Some m ->
      (match Certify.Mapping_cert.check arch m with
       | Certify.Certificate.Certified ->
         when_
           ((Model.evaluate arch m).Model.latency <> o.Baseline.best_metric)
           (which ^ " reported a latency that is not the model's")
       | cert -> Some (which ^ ": " ^ Certify.Certificate.to_string cert))
  in
  let check l (r, h) =
    let key = Printf.sprintf "%d/%s" slot (Layer.key l) in
    problems key
      [ check_outcome "random" r; check_outcome "hybrid" h;
        Golden.check golden key (outcome_fields r @ outcome_fields h) ]
  in
  let to_pass (results, wall) =
    let pairs = List.map fst results in
    { wall;
      item_s = List.map snd results;
      failures = List.concat (List.map2 check shapes pairs);
      attempted = List.length shapes;
      latencies =
        List.map
          (fun ((r : Baseline.outcome), (h : Baseline.outcome)) ->
            Float.min r.Baseline.best_metric h.Baseline.best_metric)
          pairs;
      extras = [] }
  in
  let traced () =
    let rs, figures =
      paired shapes
        ~untraced:(fun l -> search_pair slot l)
        ~traced:(fun l _ -> search_pair ~wrap:span slot l)
    in
    let traced_side = List.map snd rs in
    let outcomes = List.concat_map (fun ((r, h), _) -> [ r; h ]) traced_side in
    let samples = sum (fun (o : Baseline.outcome) -> float_of_int o.Baseline.samples) outcomes in
    let spans = span_totals () in
    { untraced = to_pass (untraced_side rs);
      layers =
        [ ("mappers.random_s", span_s spans "mappers.random");
          ("mappers.hybrid_s", span_s spans "mappers.hybrid"); ("mappers.samples", samples);
          ( "mappers.valid_frac",
            ratio (sum (fun (o : Baseline.outcome) -> float_of_int o.Baseline.valid) outcomes) samples );
          ("amodel.evaluations", counter (Telemetry.Metrics.snapshot ()) "model.evaluations") ]
        @ figures;
      trace_attempted = List.length shapes;
      trace_failures = (to_pass (traced_side, sum snd traced_side)).failures }
  in
  { pass = (fun () -> to_pass (run ())); traced }

let all =
  [ ("batch_two_stage", batch_two_stage); ("joint_mip", joint_mip); ("noc_fig10", noc_fig10);
    ("search_baselines", search_baselines) ]

(* ---- recording the expected outputs ------------------------------------ *)

(* The golden records of [name] (for search_baselines, of the seed's slot);
   for noc_fig10 this first solves and rewrites the committed mappings. *)
let record name seed =
  match name with
  | "batch_two_stage" ->
    let cache = Serve.Schedule_cache.create ~capacity:64 () in
    let r = Serve.Service.schedule_network ~cache (batch_config ()) Network.resnet50 in
    List.map
      (fun (lr : Serve.Service.layer_report) ->
        match lr.Serve.Service.served with
        | Ok s ->
          Golden.line (Layer.key lr.Serve.Service.layer)
            (schedule_fields s.Serve.Service.mapping s.Serve.Service.objective)
        | Error f -> failwith (Robust.Failure.to_string f))
      r.Serve.Service.layers
  | "joint_mip" ->
    List.map
      (fun l ->
        let r = schedule_joint l in
        Golden.line (Layer.key l) (schedule_fields r.Cosa.mapping r.Cosa.objective))
      (resnet50_shapes ())
  | "noc_fig10" ->
    List.iter
      (fun name ->
        let r =
          Cosa.schedule ~strategy:Cosa.Two_stage ~node_limit:two_stage_nodes ~time_limit arch
            (Zoo.find name)
        in
        Mapping_io.save (mapping_path name) r.Cosa.mapping)
      noc_layers;
    List.map
      (fun (name, m) ->
        match simulate m with
        | Ok s -> Golden.line name (stats_fields s)
        | Error f -> failwith (Robust.Failure.to_string f))
      (load_noc_mappings ())
  | "search_baselines" -> List.map (baseline_record (baseline_slot seed)) (resnet50_shapes ())
  | _ -> invalid_arg ("unknown workload " ^ name)
