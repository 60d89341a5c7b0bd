(* Benchmark harness: one workload per process.

     harness.exe --workload W --seed N --seconds S --trace 0|1
                 [--commit C] [--src-digest D]
     harness.exe record --workload W [--seed N]

   Run from the repository root (run.py builds the harness and does so).
   The measuring form sets the workload up [setup_reps] times (reporting
   the median), then with [--trace 0] repeats timed passes with telemetry
   off for about [--seconds] seconds and reports the end-to-end metrics,
   timings normalised by the host-speed probe (Calib); with [--trace 1] it
   runs every item untraced and traced and reports the per-layer metrics.
   Every pass checks its outputs. The last stdout line is the JSON result;
   the exit code is 1 when a check failed. [record] prints a workload's
   golden records (see Golden). *)

let now = Unix.gettimeofday
let setup_reps = 9

(* name, unit, better; the same lists as BENCHMARK.json *)
let end_to_end =
  [ ("setup_s", "s", "lower"); ("wall_s", "s", "lower"); ("item_p50_ms", "ms", "lower");
    ("peak_rss_mb", "MB", "lower"); ("sched_latency_gm_cycles", "cycles", "lower") ]

let per_layer =
  [ ("serve.schedule_network_s", "s"); ("serve.pool.queue_wait_s", "s");
    ("serve.distinct_frac", "frac"); ("serve.cache.miss", "count"); ("core.build_s", "s");
    ("core.mip_start_s", "s"); ("core.decode_s", "s"); ("core.repairs", "count");
    ("core.lp_rows", "rows"); ("bb.solve_s", "s"); ("bb.self_s", "s"); ("bb.nodes", "count");
    ("bb.nodes_per_s", "1/s"); ("bb.gap_mean", "frac"); ("bb.incumbents", "count");
    ("bb.prune.bound", "count"); ("bb.prune.gap", "count"); ("simplex.solve_s", "s");
    ("simplex.solves", "count"); ("simplex.iterations", "count"); ("simplex.warm_frac", "frac");
    ("simplex.warm_fallbacks", "count"); ("lu.refactorizations", "count");
    ("lu.eta_updates", "count"); ("lu.factor_cache_hit_frac", "frac");
    ("lu.factor_extensions", "count"); ("certify.lp_s", "s"); ("certify.mapping_s", "s");
    ("noc.simulate_s", "s"); ("noc.host_ns_per_cycle", "ns/cycle"); ("noc.sim_cycles", "cycles");
    ("noc.packets", "count"); ("noc.flits_injected", "count");
    ("noc.dram_busy_cycles", "cycles"); ("noc.dram_row_hit_frac", "frac");
    ("mappers.random_s", "s"); ("mappers.hybrid_s", "s"); ("mappers.samples", "count");
    ("mappers.valid_frac", "frac"); ("amodel.evaluations", "count"); ("gc.allocated_mb", "MB");
    ("gc.major_collections", "count"); ("proved_frac", "frac"); ("fail_frac", "frac");
    ("sim_latency_gm_cycles", "cycles"); ("sim_kcycles_per_s", "kcycles/s");
    ("trace.overhead_frac", "frac") ]

let median = function [] -> 0. | xs -> Prim.Stats.median xs

(* The gated timings are normalised to a host on which [Calib.probe] takes
   this long: raw seconds x [reference_probe_s] / the median probe time of
   the same phase of the run. *)
let reference_probe_s = 14e-3

(* Peak resident set of this process, from /proc; the GC's peak heap where
   /proc is missing. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l -> (
            match Scanf.sscanf l "VmHWM: %d kB" Fun.id with
            | kb -> Some (float_of_int kb /. 1024.)
            | exception _ -> find ())
        in
        find ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let json_string s = "\"" ^ Telemetry.Trace.json_escape s ^ "\""
let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let usage () =
  prerr_endline
    "usage: harness.exe --workload W --seed N --seconds S --trace 0|1 [--commit C] \
     [--src-digest D]\n       harness.exe record --workload W [--seed N]";
  exit 2

let parse args =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let out_dir = "perfbench/out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let append_run line =
  ensure_out_dir ();
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
    (Filename.concat out_dir "runs.jsonl") (fun oc -> output_string oc (line ^ "\n"))

let print_table rows =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-28s %14.6g %s\n" name v unit) rows

let measure ~name ~setup ~seed ~seconds ~trace ~opt =
  (* Repeated set-up, the last instance measured. Every set-up and every
     pass starts from a collected heap, so no GC debt carries over into a
     timed region, and follows a host-speed probe. *)
  let setups =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        Calib.sample ();
        Workloads.timed (fun () -> setup seed))
  in
  let setup_probe = Calib.take () in
  let w = fst (List.nth setups (setup_reps - 1)) in
  let setup_raw = median (List.map snd setups) in
  let json_list xs = "[" ^ String.concat ", " (List.map json_num xs) ^ "]" in
  let calib, runs, metrics, extras, failures, attempted =
    if trace then begin
      let t = w.Workloads.traced () in
      let u = t.Workloads.untraced in
      let failures = u.Workloads.failures @ t.Workloads.trace_failures in
      let attempted = u.Workloads.attempted + t.Workloads.trace_attempted in
      let fail_frac = float_of_int (min attempted (List.length failures)) /. float_of_int attempted in
      let have = (("fail_frac", fail_frac) :: t.Workloads.layers) @ u.Workloads.extras in
      let metrics =
        List.map
          (fun (m, unit) -> (m, unit, Option.value ~default:0. (List.assoc_opt m have)))
          per_layer
      in
      ensure_out_dir ();
      Telemetry.Trace.write_file (Filename.concat out_dir ("trace-" ^ name ^ ".json"));
      (setup_probe, [], metrics, [], failures, attempted)
    end
    else begin
      (* passes until another would overrun the budget; at least one *)
      let t0 = now () in
      let rec go acc =
        Gc.full_major ();
        for _ = 1 to 3 do
          Calib.sample ()
        done;
        let acc = w.Workloads.pass () :: acc in
        let elapsed = now () -. t0 in
        if elapsed +. (elapsed /. float_of_int (List.length acc)) <= seconds then go acc
        else List.rev acc
      in
      let ps = go [] in
      let run_probe = Calib.take () in
      let first = List.hd ps in
      let wall_raw = median (List.map (fun p -> p.Workloads.wall) ps) in
      let item_raw = 1e3 *. median (List.concat_map (fun p -> p.Workloads.item_s) ps) in
      let norm probe x = x *. reference_probe_s /. probe in
      let values =
        [ ("setup_s", norm setup_probe setup_raw);
          ("wall_s", norm run_probe wall_raw);
          ("item_p50_ms", norm run_probe item_raw);
          ("peak_rss_mb", peak_rss_mb ());
          ("sched_latency_gm_cycles", Workloads.geomean first.Workloads.latencies) ]
      in
      let metrics = List.map (fun (m, unit, _) -> (m, unit, List.assoc m values)) end_to_end in
      let attempted = List.fold_left (fun a p -> a + p.Workloads.attempted) 0 ps in
      let failures = List.concat_map (fun p -> p.Workloads.failures) ps in
      (* raw timings and workload-specific figures: printed, not gated *)
      let extras =
        [ ("setup_raw_s", "s", setup_raw); ("wall_raw_s", "s", wall_raw);
          ("item_p50_raw_ms", "ms", item_raw) ]
        @ List.map (fun (m, v) -> (m, List.assoc m per_layer, v)) first.Workloads.extras
        @ [ ("fail_frac", "frac", float_of_int (List.length failures) /. float_of_int attempted) ]
      in
      (run_probe, List.map (fun p -> p.Workloads.wall) ps, metrics, extras, failures, attempted)
    end
  in
  let failed = min attempted (List.length failures) in
  let correct = failed = 0 in
  List.iteri (fun i f -> if i < 20 then prerr_endline ("FAILED " ^ f)) failures;
  let provenance =
    json_obj
      [ ("workload", json_string name); ("seed", string_of_int seed);
        ("seconds", json_num seconds); ("trace", string_of_int (Bool.to_int trace));
        ("commit", json_string (Option.value ~default:"unknown" (opt "commit")));
        ("src_digest", json_string (Option.value ~default:"unknown" (opt "src-digest")));
        ("nproc", string_of_int (Domain.recommended_domain_count ()));
        ("ocaml", json_string Sys.ocaml_version); ("calib_ms", json_num (1e3 *. calib));
        ("items", string_of_int attempted);
        ("setup_reps_s", json_list (List.map snd setups)); ("pass_walls_s", json_list runs) ]
  in
  Printf.printf "workload %s, seed %d: %d pass(es), %d item(s), %d failed\n" name seed
    (max 1 (List.length runs)) attempted failed;
  print_table (metrics @ extras);
  Printf.printf "{\"provenance\": %s}\n" provenance;
  let result =
    json_obj
      [ ("correct", string_of_bool correct); ("attempted", string_of_int attempted);
        ("failed", string_of_int failed);
        ( "metrics",
          json_obj
            (List.map
               (fun (m, unit, v) ->
                 (m, json_obj [ ("value", json_num v); ("unit", json_string unit) ]))
               metrics) ) ]
  in
  append_run (json_obj [ ("provenance", provenance); ("result", result) ]);
  print_endline result;
  exit (if correct then 0 else 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let recording, args = match args with "record" :: rest -> (true, rest) | _ -> (false, args) in
  let kv = parse args in
  let opt k = List.assoc_opt k kv in
  let int_opt k = Option.bind (opt k) int_of_string_opt in
  let name = Option.value ~default:"" (opt "workload") in
  let setup = match List.assoc_opt name Workloads.all with Some s -> s | None -> usage () in
  let seed = Option.value ~default:0 (int_opt "seed") in
  if recording then List.iter print_endline (Workloads.record name seed)
  else
    match (opt "seed", Option.bind (opt "seconds") float_of_string_opt, opt "trace") with
    | Some _, Some seconds, Some (("0" | "1") as t) when int_opt "seed" <> None && seconds > 0. ->
      (try measure ~name ~setup ~seed ~seconds ~trace:(t = "1") ~opt
       with (Failure msg | Sys_error msg) ->
         prerr_endline ("perfbench: " ^ msg);
         exit 1)
    | _ -> usage ()
