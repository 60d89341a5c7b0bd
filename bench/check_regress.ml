(* Bench regression gate: compare a fresh BENCH_results.json against the
   committed BENCH_baseline.json.

     dune exec bench/check_regress.exe -- BENCH_results.json BENCH_baseline.json

   Two classes of check, matching what each number can promise:

   - Wall times (per experiment, and the warm/cold sweep walls) are
     machine- and load-dependent: drift beyond ±20% prints a WARNING but
     never fails the gate.

   - The warm-start sweep is node-bound, so its telemetry counters are
     deterministic: any counter drift against the baseline is a real
     behavioural change (different pivots, different tree) and FAILS the
     gate (exit 1), as does a sweep that lost warm/cold identity or stopped
     warm-solving nodes.

   Reads both files with [Telemetry.Json.parse]. *)

module J = Telemetry.Json

let load path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith e

let path_opt j keys = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) keys

let number = function J.Int i -> Some (float_of_int i) | J.Float x -> Some x | _ -> None
let num_opt j keys = Option.bind (path_opt j keys) number
let bool_opt j keys = match path_opt j keys with Some (J.Bool b) -> Some b | _ -> None

let warnings = ref 0
let failures = ref 0

let warn fmt =
  Printf.ksprintf
    (fun s ->
      incr warnings;
      Printf.printf "WARNING: %s\n" s)
    fmt

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL: %s\n" s)
    fmt

let wall_tolerance = 0.20

let check_wall label fresh base =
  match (fresh, base) with
  | Some f, Some b when b > 0. ->
    let drift = (f -. b) /. b in
    if Float.abs drift > wall_tolerance then
      warn "%s wall %.2fs vs baseline %.2fs (%+.0f%%, tolerance ±%.0f%%)" label f b
        (100. *. drift) (100. *. wall_tolerance)
  | Some _, Some _ -> ()
  | _ -> warn "%s wall time missing from results or baseline" label

(* per-experiment wall times, matched by id *)
let check_experiments fresh base =
  let exps j =
    match J.member "experiments" j with
    | Some (J.List es) ->
      List.filter_map
        (fun e ->
          match (path_opt e [ "id" ], num_opt e [ "wall_s" ]) with
          | Some (J.String id), Some w -> Some (id, w)
          | _ -> None)
        es
    | _ -> []
  in
  let base_exps = exps base in
  List.iter
    (fun (id, w) ->
      match List.assoc_opt id base_exps with
      | Some bw -> check_wall (Printf.sprintf "experiment %s" id) (Some w) (Some bw)
      | None -> warn "experiment %s missing from baseline" id)
    (exps fresh)

(* The node-bound warm sweep: identity booleans must hold in the fresh run,
   and every telemetry counter must match the baseline exactly. *)
let check_sweep fresh base =
  match (J.member "warm_sweep" fresh, J.member "warm_sweep" base) with
  | None, _ -> fail "warm_sweep section missing from fresh results"
  | _, None -> warn "warm_sweep section missing from baseline (gate skipped)"
  | Some f, Some b ->
    List.iter
      (fun key ->
        match bool_opt f [ key ] with
        | Some true -> ()
        | Some false -> fail "warm_sweep.%s is false (warm/cold runs diverged)" key
        | None -> fail "warm_sweep.%s missing" key)
      [ "schedules_identical"; "objectives_identical"; "nodes_identical" ];
    (match num_opt f [ "warm"; "telemetry"; "counters"; "simplex.warm_solves" ] with
     | Some w when w > 0. -> ()
     | Some _ -> fail "warm sweep performed no warm solves"
     | None -> fail "warm_sweep warm_solves counter missing");
    (* The incremental LU engine's reason to exist: the warm sweep must
       stay at or below 0.2 full refactorizations per simplex solve (the
       pre-engine code performed ~2 per solve). A missing refactorization
       counter means zero refactorizations, which trivially passes. *)
    (match num_opt f [ "warm"; "telemetry"; "counters"; "simplex.solves" ] with
     | Some solves when solves > 0. ->
       let refac =
         Option.value ~default:0.
           (num_opt f [ "warm"; "telemetry"; "counters"; "simplex.refactorizations" ])
       in
       let per_solve = refac /. solves in
       if per_solve > 0.2 then
         fail
           "warm sweep refactorizations per solve %.3f exceeds the 0.2 gate \
            (%.0f refactorizations / %.0f solves)"
           per_solve refac solves
     | Some _ | None -> fail "warm_sweep simplex.solves counter missing or zero");
    check_wall "warm_sweep(warm)" (num_opt f [ "warm"; "wall_s" ])
      (num_opt b [ "warm"; "wall_s" ]);
    check_wall "warm_sweep(cold)" (num_opt f [ "cold"; "wall_s" ])
      (num_opt b [ "cold"; "wall_s" ]);
    List.iter
      (fun side ->
        match
          (path_opt f [ side; "telemetry"; "counters" ],
           path_opt b [ side; "telemetry"; "counters" ])
        with
        | Some (J.Obj fc), Some (J.Obj bc) ->
          List.iter
            (fun (name, v) ->
              match (number v, Option.map number (List.assoc_opt name bc)) with
              | Some fv, Some (Some bv) ->
                if fv <> bv then
                  fail "warm_sweep %s counter %s drifted: %.0f vs baseline %.0f" side
                    name fv bv
              | _, None ->
                fail "warm_sweep %s counter %s absent from baseline" side name
              | _ -> fail "warm_sweep %s counter %s is not a number" side name)
            fc;
          List.iter
            (fun (name, _) ->
              if not (List.mem_assoc name fc) then
                fail "warm_sweep %s counter %s vanished from fresh results" side name)
            bc
        | _ -> fail "warm_sweep %s telemetry counters missing" side)
      [ "warm"; "cold" ]

(* The fusion sweep is exact-integer and node-bound, so its word counts are
   deterministic: any drift against the baseline is a real change to the
   planner or cost model and FAILS the gate. Gated networks must also keep
   clearing the >= gate_pct savings floor, and the DRAM-model replay must
   keep the fused stream strictly cheaper. *)
let check_fuse fresh base =
  match (J.member "fuse" fresh, J.member "fuse" base) with
  | None, None -> ()
  | None, Some _ -> fail "fuse section missing from fresh results"
  | Some _, None -> warn "fuse section missing from baseline (gate skipped)"
  | Some f, Some b ->
    let gate = match num_opt f [ "gate_pct" ] with Some g -> g | None -> 20. in
    let nets j =
      match J.member "networks" j with
      | Some (J.List ns) ->
        List.filter_map
          (fun e ->
            match path_opt e [ "name" ] with
            | Some (J.String name) -> Some (name, e)
            | _ -> None)
          ns
      | _ -> []
    in
    let base_nets = nets b in
    List.iter
      (fun (name, e) ->
        (match num_opt e [ "fused" ] with
         | Some n when n >= 1. -> ()
         | _ -> fail "fuse %s: no chains fused" name);
        (if bool_opt e [ "gated" ] = Some true then
           match num_opt e [ "savings_pct" ] with
           | Some s when s >= gate -> ()
           | Some s -> fail "fuse %s: savings %.1f%% below the %.0f%% gate" name s gate
           | None -> fail "fuse %s: savings_pct missing" name);
        match List.assoc_opt name base_nets with
        | None -> warn "fuse network %s missing from baseline" name
        | Some be ->
          List.iter
            (fun key ->
              match (num_opt e [ key ], num_opt be [ key ]) with
              | Some fv, Some bv ->
                if fv <> bv then
                  fail "fuse %s %s drifted: %.0f vs baseline %.0f" name key fv bv
              | _ -> fail "fuse %s %s missing from results or baseline" name key)
            [ "chain_independent_words"; "chain_fused_words";
              "network_independent_words"; "network_fused_words" ])
      (nets f);
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name (nets f)) then
          fail "fuse network %s vanished from fresh results" name)
      base_nets;
    (match
       (num_opt f [ "dram_sim"; "fused_busy_cycles" ],
        num_opt f [ "dram_sim"; "independent_busy_cycles" ])
     with
     | Some fu, Some ind when fu < ind -> ()
     | Some _, Some _ ->
       fail "fuse DRAM model: fused stream not strictly cheaper than independent"
     | _ -> fail "fuse DRAM model busy-cycle counts missing")

let () =
  let results, baseline =
    match Sys.argv with
    | [| _; r; b |] -> (r, b)
    | _ ->
      prerr_endline "usage: check_regress RESULTS.json BASELINE.json";
      exit 2
  in
  let fresh =
    try load results
    with e ->
      Printf.eprintf "cannot read %s: %s\n" results (Printexc.to_string e);
      exit 2
  in
  let base =
    try load baseline
    with e ->
      Printf.eprintf "cannot read %s: %s\n" baseline (Printexc.to_string e);
      exit 2
  in
  check_experiments fresh base;
  check_sweep fresh base;
  check_fuse fresh base;
  Printf.printf "regression gate: %d failure(s), %d warning(s)\n" !failures !warnings;
  if !failures > 0 then exit 1
