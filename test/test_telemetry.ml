(* Tests for the telemetry subsystem: atomic metrics, the span ring and
   its Chrome export, the zero-cost-when-disabled contract, race-free
   recording under the domain pool, and non-interference with solver
   determinism. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module M = Telemetry.Metrics
module T = Telemetry.Trace
module J = Telemetry.Json

(* Every test arms a sink and must leave the process-wide default (Null)
   behind, even on assertion failure — other suites assume telemetry off. *)
let with_sink sink f =
  Telemetry.Sink.set sink;
  M.reset ();
  T.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.Sink.set Telemetry.Sink.Null) f

(* ---- metrics ---------------------------------------------------------- *)

let test_counter_basic () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  let c = M.counter "test.counter" in
  check_int "registered at zero" 0 (M.counter_value (M.snapshot ()) "test.counter");
  M.incr c;
  M.incr c;
  M.add c 40;
  check_int "incr + add accumulate" 42 (M.counter_value (M.snapshot ()) "test.counter");
  (* find-or-create: the same name is the same counter *)
  M.incr (M.counter "test.counter");
  check_int "same name, same cell" 43 (M.counter_value (M.snapshot ()) "test.counter");
  check_int "absent counter reads 0" 0 (M.counter_value (M.snapshot ()) "test.absent")

let test_disabled_is_noop () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  let c = M.counter "test.gated" in
  Telemetry.Sink.set Telemetry.Sink.Null;
  M.incr c;
  M.observe (M.histogram "test.gated_hist") 1.0;
  ignore (T.begin_span "gated");
  T.instant "gated";
  Telemetry.Sink.set Telemetry.Sink.Memory;
  check_int "counter untouched while disabled" 0
    (M.counter_value (M.snapshot ()) "test.gated");
  check_bool "no events recorded while disabled" true (T.events () = []);
  let snap = M.snapshot () in
  check_int "histogram untouched while disabled" 0
    (List.assoc "test.gated_hist" snap.M.histograms).M.count

let test_histogram_buckets () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  let h = M.histogram ~buckets:[| 1.; 10.; 100. |] "test.hist" in
  List.iter (M.observe h) [ 0.5; 1.0; 3.; 50.; 1e6 ];
  let s = List.assoc "test.hist" (M.snapshot ()).M.histograms in
  check_int "sample count" 5 s.M.count;
  Alcotest.(check (float 1e-9)) "sum" (0.5 +. 1.0 +. 3. +. 50. +. 1e6) s.M.sum;
  (* bounds get an implicit overflow bucket appended *)
  check_int "bucket array length" 4 (Array.length s.M.counts);
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 1; 1; 1 |] s.M.counts;
  check_bool "overflow bound is inf" true (s.M.bounds.(3) = infinity);
  (* the bucket estimate is the containing bucket's upper bound *)
  Alcotest.(check (float 1e-9)) "median estimate" 10. (M.hist_quantile s 0.5)

let test_snapshot_reset () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  let c = M.counter "test.reset_c" in
  let h = M.histogram "test.reset_h" in
  M.add c 7;
  M.observe h 0.5;
  M.set_gauge (M.gauge "test.reset_g") 3.5;
  M.reset ();
  let snap = M.snapshot () in
  (* registrations survive a reset; only values are cleared *)
  check_int "counter re-zeroed" 0 (M.counter_value snap "test.reset_c");
  check_bool "counter still listed" true (List.mem_assoc "test.reset_c" snap.M.counters);
  check_int "histogram re-zeroed" 0 (List.assoc "test.reset_h" snap.M.histograms).M.count;
  Alcotest.(check (float 0.)) "gauge re-zeroed" 0. (List.assoc "test.reset_g" snap.M.gauges);
  M.incr c;
  check_int "cell usable after reset" 1 (M.counter_value (M.snapshot ()) "test.reset_c")

(* ---- tracing ---------------------------------------------------------- *)

let test_span_nesting_balance () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  T.with_span ~cat:"outer" "a" (fun () ->
      T.with_span ~cat:"inner" "b" (fun () -> ());
      T.instant ~args:[ ("k", "v") ] "tick");
  let evs = T.events () in
  check_int "three events" 3 (List.length evs);
  (* spans are recorded as complete events when they end, so the export is
     balanced by construction: every span event carries its own duration *)
  List.iter
    (fun (e : T.event) ->
      check_bool ("non-negative ts: " ^ e.T.name) true (e.T.ts >= 0.);
      check_bool ("non-negative dur: " ^ e.T.name) true (e.T.dur >= 0.))
    evs;
  let span_events = List.filter (fun (e : T.event) -> e.T.complete) evs in
  check_int "two complete spans" 2 (List.length span_events);
  let outer = List.find (fun (e : T.event) -> e.T.name = "a") evs in
  let inner = List.find (fun (e : T.event) -> e.T.name = "b") evs in
  check_bool "inner nests inside outer" true
    (inner.T.ts >= outer.T.ts
    && inner.T.ts +. inner.T.dur <= outer.T.ts +. outer.T.dur +. 1e-9);
  (* Chrome export: one JSON object, one "X" record per span, one "i" *)
  let chrome = T.export_chrome () in
  let count_sub sub =
    let n = ref 0 and i = ref 0 in
    let len = String.length sub in
    while !i + len <= String.length chrome do
      if String.sub chrome !i len = sub then incr n;
      incr i
    done;
    !n
  in
  check_bool "has traceEvents array" true (count_sub "\"traceEvents\"" = 1);
  check_int "balanced complete events" 2 (count_sub "\"ph\":\"X\"");
  check_int "one instant" 1 (count_sub "\"ph\":\"i\"");
  check_bool "args exported" true (count_sub "\"k\":\"v\"" = 1)

let test_span_exception_safety () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  (try T.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  check_int "span still recorded on raise" 1 (List.length (T.events ()))

let test_profile_aggregates () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  for _ = 1 to 5 do
    T.with_span "p.work" (fun () -> ())
  done;
  (match List.find_opt (fun (n, _, _) -> n = "p.work") (T.profile_entries ()) with
   | Some (_, count, total) ->
     check_int "profile count" 5 count;
     check_bool "profile total >= 0" true (total >= 0.)
   | None -> Alcotest.fail "p.work missing from profile");
  check_bool "summary renders" true (String.length (T.profile_summary ()) > 0)

let test_ring_overwrite () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  (* the ring keeps the newest [capacity] events; the recorded total and
     the profile aggregates keep counting past the overwrite *)
  T.set_capacity 1024;
  Fun.protect ~finally:(fun () -> T.set_capacity 65536) @@ fun () ->
  for _ = 1 to 1500 do
    T.with_span "r.spin" (fun () -> ())
  done;
  check_int "ring clamps to capacity" 1024 (List.length (T.events ()));
  check_int "recorded counts overwrites" 1500 (T.recorded ());
  match List.find_opt (fun (n, _, _) -> n = "r.spin") (T.profile_entries ()) with
  | Some (_, count, _) -> check_int "profile survives overwrite" 1500 count
  | None -> Alcotest.fail "r.spin missing from profile"

(* ---- domain-safety and non-interference ------------------------------- *)

let test_pool_metrics_race_free () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  let n = 200 in
  let results =
    Serve.Pool.run ~jobs:4 (fun i -> i * i) (List.init n (fun i -> i))
  in
  check_int "all tasks returned" n (List.length results);
  let snap = M.snapshot () in
  (* atomic recording: 4 domains recording concurrently lose no ticks *)
  check_int "pool task counter exact" n (M.counter_value snap "serve.pool.tasks");
  check_int "queue-wait samples exact" n
    (List.assoc "serve.pool.queue_wait_s" snap.M.histograms).M.count;
  check_int "one span per task" n (T.recorded ())

let test_determinism_with_telemetry () =
  (* telemetry observes the solver, it must never steer it: a node-bound
     schedule is byte-identical with collection off and with every
     observability surface armed (sink + event log + exports) *)
  let arch = Spec.baseline in
  let layer = Layer.create ~name:"tel_det" ~r:3 ~s:3 ~p:4 ~q:4 ~c:4 ~k:8 ~n:1 () in
  let solve () =
    Mapping_io.to_string
      (Cosa.schedule ~strategy:Cosa.Two_stage ~node_limit:2_000 ~time_limit:60. arch
         layer)
        .Cosa.mapping
  in
  Telemetry.Sink.set Telemetry.Sink.Null;
  Telemetry.Log.set Telemetry.Log.Null;
  let off = solve () in
  let on =
    with_sink Telemetry.Sink.Memory (fun () ->
        Telemetry.Log.set ~level:Telemetry.Log.Debug Telemetry.Log.Memory;
        Fun.protect
          ~finally:(fun () -> Telemetry.Log.set Telemetry.Log.Null)
          (fun () ->
            let r = solve () in
            (* exports are pure readers: rendering them must not matter *)
            ignore (Telemetry.Export.prometheus (M.snapshot ()));
            ignore (Telemetry.Export.metrics_json (M.snapshot ()));
            r))
  in
  Alcotest.(check string) "schedule identical with telemetry on" off on

(* The aggregate stage timers of the node path read 0 while the sink is
   off and count nanoseconds once it is armed. *)
let test_stage_timers () =
  let timers =
    [ "simplex.canonicalize_ns"; "simplex.rebase_ns"; "simplex.finalize_ns"; "bb.presolve_ns" ]
  in
  let solve () =
    ignore
      (Cosa.schedule ~strategy:Cosa.Two_stage ~node_limit:3_000 ~time_limit:60. Spec.baseline
         (Zoo.find "3_14_256_256_1"))
  in
  with_sink Telemetry.Sink.Memory @@ fun () ->
  Telemetry.Sink.set Telemetry.Sink.Null;
  solve ();
  Telemetry.Sink.set Telemetry.Sink.Memory;
  let off = M.snapshot () in
  List.iter (fun t -> check_int (t ^ " with the sink off") 0 (M.counter_value off t)) timers;
  solve ();
  let on = M.snapshot () in
  List.iter (fun t -> check_bool (t ^ " armed") true (M.counter_value on t > 0)) timers

(* ---- structured event log --------------------------------------------- *)

let with_log ?level ?rate_limit output f =
  Telemetry.Log.set ?level ?rate_limit output;
  Fun.protect ~finally:(fun () -> Telemetry.Log.set Telemetry.Log.Null) f

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec at i = i + m <= n && (String.sub hay i m = needle || at (i + 1)) in
  at 0

let test_log_disabled_noop () =
  Telemetry.Log.set Telemetry.Log.Null;
  check_bool "disabled by default" false (Telemetry.Log.enabled ());
  Telemetry.Log.info "log.gated" [ ("k", "v") ];
  Telemetry.Log.error "log.gated" [];
  check_bool "nothing captured while disabled" true (Telemetry.Log.captured () = [])

let test_log_jsonl_and_levels () =
  with_log ~level:Telemetry.Log.Info Telemetry.Log.Memory @@ fun () ->
  check_bool "armed" true (Telemetry.Log.enabled ());
  Telemetry.Log.debug "log.dropped" [];
  Telemetry.Log.info "log.line" [ ("key", "value"); ("quote", "a\"b") ];
  Telemetry.Log.warn "log.warned" [];
  (match Telemetry.Log.captured () with
   | [ l1; l2 ] ->
     check_bool "JSONL object" true
       (String.length l1 > 2 && l1.[0] = '{' && l1.[String.length l1 - 1] = '}');
     check_bool "timestamp" true (contains l1 "\"ts\":");
     check_bool "level" true (contains l1 "\"level\":\"info\"");
     check_bool "event name" true (contains l1 "\"event\":\"log.line\"");
     check_bool "fields" true (contains l1 "\"key\":\"value\"");
     check_bool "fields escaped" true (contains l1 "\"quote\":\"a\\\"b\"");
     check_bool "below-level line dropped" false (contains l1 "log.dropped");
     check_bool "warn emitted" true (contains l2 "\"level\":\"warn\"")
   | lines ->
     Alcotest.fail
       (Printf.sprintf "expected 2 captured lines, got %d" (List.length lines)));
  (* the ambient request binding tags lines automatically *)
  Telemetry.Trace.with_request ~id:0xabcL ~hop:2 (fun () ->
      Telemetry.Log.info "log.tagged" []);
  let last = List.hd (List.rev (Telemetry.Log.captured ())) in
  check_bool "req tag" true
    (contains last ("\"req\":\"" ^ Telemetry.Trace.request_id_hex 0xabcL ^ "\""));
  check_bool "hop tag" true (contains last "\"hop\":2");
  (* level parsing used by the CLI flag *)
  check_bool "level_of_string" true
    (Telemetry.Log.level_of_string "warn" = Some Telemetry.Log.Warn
    && Telemetry.Log.level_of_string "bogus" = None)

let test_log_rate_limit () =
  with_log ~rate_limit:(2, 100.) Telemetry.Log.Memory @@ fun () ->
  for i = 1 to 20 do
    Telemetry.Log.info "log.storm" [ ("i", string_of_int i) ]
  done;
  let burst = List.length (Telemetry.Log.captured ()) in
  check_bool "storm clamped to around the burst" true (burst <= 5);
  check_bool "drops counted" true (Telemetry.Log.suppressed_total () >= 15);
  (* after a refill, the next line surfaces the suppressed count *)
  Thread.delay 0.05;
  Telemetry.Log.info "log.storm" [];
  let last = List.hd (List.rev (Telemetry.Log.captured ())) in
  check_bool "suppression visible in-stream" true (contains last "\"suppressed\":");
  (* an unrelated event name has its own bucket *)
  Telemetry.Log.info "log.calm" [];
  check_bool "independent buckets" true
    (List.exists
       (fun l -> contains l "log.calm" && not (contains l "\"suppressed\""))
       (Telemetry.Log.captured ()))

(* ---- exposition formats ------------------------------------------------ *)

let test_export_prometheus () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  M.add (M.counter "exp.requests-total") 3;
  M.set_gauge (M.gauge "exp.depth") 2.5;
  let h = M.histogram ~buckets:[| 0.1; 1. |] "exp.wait_s" in
  List.iter (M.observe h) [ 0.05; 0.5; 5. ];
  let text = Telemetry.Export.prometheus (M.snapshot ()) in
  check_bool "counter typed" true (contains text "# TYPE cosa_exp_requests_total counter");
  check_bool "counter value" true (contains text "cosa_exp_requests_total 3");
  check_bool "gauge" true (contains text "cosa_exp_depth 2.5");
  check_bool "histogram typed" true (contains text "# TYPE cosa_exp_wait_s histogram");
  (* buckets are cumulative and end at +Inf = count *)
  check_bool "le=0.1" true (contains text "cosa_exp_wait_s_bucket{le=\"0.1\"} 1");
  check_bool "le=1" true (contains text "cosa_exp_wait_s_bucket{le=\"1\"} 2");
  check_bool "le=+Inf" true (contains text "cosa_exp_wait_s_bucket{le=\"+Inf\"} 3");
  check_bool "count" true (contains text "cosa_exp_wait_s_count 3");
  check_bool "name mangling" true (not (contains text "exp.requests-total"));
  let js = J.to_string (Telemetry.Export.metrics_json (M.snapshot ())) in
  check_bool "json counters" true (contains js "\"exp.requests-total\":3");
  check_bool "json histogram count" true (contains js "\"count\":3")

(* ---- the JSON spine ------------------------------------------------------ *)

(* JSON has no nan or infinity: a non-finite value prints as 0, both as a
   bare number and inside a metrics object. Finite floats read back
   bit-exact, microsecond timestamps included. *)
let test_json_numbers () =
  List.iter
    (fun v -> Alcotest.(check string) "non-finite" "0" (J.to_string (J.Float v)))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check string) "integer" "3" (J.to_string (J.Float 3.));
  Alcotest.(check string) "fraction" "2.5" (J.to_string (J.Float 2.5));
  List.iter
    (fun v ->
      match J.parse (J.to_string (J.Float v)) with
      | Ok (J.Float r) ->
        check_bool (Printf.sprintf "%h reads back bit-exact" v) true
          (Int64.bits_of_float r = Int64.bits_of_float v)
      | _ -> Alcotest.fail (Printf.sprintf "%h did not read back as a float" v))
    [ 0.1; 1e-7; 1234567.891; 1754700000.123456; 1. /. 3. ];
  with_sink Telemetry.Sink.Memory @@ fun () ->
  M.set_gauge (M.gauge "exp.undefined") nan;
  M.set_gauge (M.gauge "exp.unbounded") infinity;
  let js = J.to_string (Telemetry.Export.metrics_json (M.snapshot ())) in
  List.iter
    (fun tok -> check_bool ("no " ^ tok) false (contains js tok))
    [ ":nan"; ":inf"; ":-inf"; ":-nan" ];
  check_bool "nan gauge as 0" true (contains js "\"exp.undefined\":0");
  check_bool "inf gauge as 0" true (contains js "\"exp.unbounded\":0")

(* Numbers compare by value: [Float 3.] prints as 3 and reads back as
   [Int 3]. *)
let rec json_equal a b =
  match (a, b) with
  | (J.Int _ | J.Float _), (J.Int _ | J.Float _) ->
    let f = function J.Int i -> float_of_int i | J.Float x -> x | _ -> nan in
    f a = f b
  | J.List xs, J.List ys -> List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | J.Obj xs, J.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | _ -> a = b

let json_gen =
  let open QCheck.Gen in
  (* quotes, backslashes, control and non-ASCII bytes beside plain text *)
  let str =
    let special = oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '\031'; '\127'; '\200'; '\255' ] in
    string_size ~gen:(oneof [ special; printable ]) (0 -- 12)
  in
  let finite = map (fun f -> if Float.is_finite f then f else 0.) float in
  let leaf =
    oneof
      [ return J.Null; map (fun b -> J.Bool b) bool; map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) finite; map (fun f -> J.Float f) (float_bound_inclusive 1e7);
        map (fun s -> J.String s) str ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (n / 4))));
               (1, map (fun l -> J.Obj l) (list_size (0 -- 4) (pair str (self (n / 4))))) ])

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"json parse (to_string v) = v" ~count:500
    (QCheck.make ~print:J.to_string json_gen)
    (fun v ->
      match J.parse (J.to_string v) with
      | Ok w -> json_equal v w
      | Error e -> QCheck.Test.fail_report e)

let test_json_rejects () =
  List.iter
    (fun (label, text) ->
      match J.parse text with
      | Ok _ -> Alcotest.fail (label ^ ": accepted " ^ String.escaped text)
      | Error e ->
        check_bool (label ^ " error names a byte offset") true (contains e "at byte"))
    [ ("truncated true", "tru"); ("truncated null", "nul");
      ("trailing comma", "{\"a\":1,}"); ("missing comma", "[1 2]");
      ("trailing garbage", "{} x"); ("unterminated string", "\"abc");
      ("raw control byte", "\"a\001b\""); ("empty input", "") ];
  (match J.parse "{\"a\":[1,2.5,\"\\u00e9\\ud83d\\ude00\"],\"b\":null}" with
   | Ok v ->
     check_bool "members, ints, floats and \\u escapes" true
       (J.member "a" v
        = Some (J.List [ J.Int 1; J.Float 2.5; J.String "\xc3\xa9\xf0\x9f\x98\x80" ])
       && J.member "b" v = Some J.Null && J.member "c" v = None)
   | Error e -> Alcotest.fail e);
  match J.parse "[1,\n  2,\n  x]" with
  | Error e ->
    Alcotest.(check string) "offset of the bad byte" "unexpected character at byte 11" e
  | Ok _ -> Alcotest.fail "accepted a bare word"

(* ---- snapshot consistency under concurrent mutation (jobs=4) ---------- *)

let test_snapshot_concurrent () =
  with_sink Telemetry.Sink.Memory @@ fun () ->
  let c = M.counter "conc.ticks" in
  let h = M.histogram ~buckets:[| 0.5; 1.5; 2.5 |] "conc.obs" in
  let per_domain = 20_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              M.incr c;
              M.observe h (float_of_int ((d + i) mod 4))
            done))
  in
  (* read snapshots while all four domains are mutating: counters must be
     monotone across reads and histograms never torn (the bucket writes
     land before the count, so Σbuckets >= count in every snapshot) *)
  let prev = ref 0 in
  for _ = 1 to 50 do
    let snap = M.snapshot () in
    let v = M.counter_value snap "conc.ticks" in
    check_bool "counter monotone under races" true (v >= !prev);
    prev := v;
    let hs = List.assoc "conc.obs" snap.M.histograms in
    let bucket_sum = Array.fold_left ( + ) 0 hs.M.counts in
    check_bool "histogram never torn (sum buckets >= count)" true
      (bucket_sum >= hs.M.count)
  done;
  List.iter Domain.join domains;
  let snap = M.snapshot () in
  check_int "no tick lost" (4 * per_domain) (M.counter_value snap "conc.ticks");
  let hs = List.assoc "conc.obs" snap.M.histograms in
  check_int "no observation lost" (4 * per_domain) hs.M.count;
  check_int "buckets settle to the count" hs.M.count
    (Array.fold_left ( + ) 0 hs.M.counts)

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "counter basics" `Quick test_counter_basic;
      Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
      Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "snapshot reset" `Quick test_snapshot_reset;
      Alcotest.test_case "span nesting balance" `Quick test_span_nesting_balance;
      Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
      Alcotest.test_case "profile aggregates" `Quick test_profile_aggregates;
      Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
      Alcotest.test_case "pool metrics race-free" `Quick test_pool_metrics_race_free;
      Alcotest.test_case "determinism with telemetry" `Quick test_determinism_with_telemetry;
      Alcotest.test_case "stage timers gated on the sink" `Quick test_stage_timers;
      Alcotest.test_case "log disabled is no-op" `Quick test_log_disabled_noop;
      Alcotest.test_case "log JSONL shape and levels" `Quick test_log_jsonl_and_levels;
      Alcotest.test_case "log rate limiting" `Quick test_log_rate_limit;
      Alcotest.test_case "prometheus exposition" `Quick test_export_prometheus;
      Alcotest.test_case "json numbers: nan/inf print as 0" `Quick test_json_numbers;
      Alcotest.test_case "json rejects malformed input" `Quick test_json_rejects;
      QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
      Alcotest.test_case "snapshot under concurrent mutation" `Quick test_snapshot_concurrent;
    ] )
