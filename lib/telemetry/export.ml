(* Expositions of a [Metrics.snapshot]: Prometheus 0.0.4 text format
   for scrapers, and a [Json.t] object for the daemon Stats frame /
   BENCH_results.json. Both work on an immutable snapshot, so
   they are safe to call while recorders run. *)

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our registry uses
   dotted names ("bb.nodes", "cache.hit-rate"); dots and dashes become
   underscores, anything else non-conforming becomes '_' too. *)
let mangle name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || c = '_' || c = ':'
        || (i > 0 && c >= '0' && c <= '9')
      in
      if not ok then Bytes.set b i '_')
    b;
  Bytes.to_string b

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let le_label bound =
  if bound = infinity then "+Inf" else Printf.sprintf "%g" bound

let prometheus ?(prefix = "cosa") (snap : Metrics.snapshot) =
  let buf = Buffer.create 2048 in
  let name n = prefix ^ "_" ^ mangle n in
  List.iter
    (fun (n, v) ->
      let m = name n in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" m m v))
    snap.Metrics.counters;
  List.iter
    (fun (n, v) ->
      if Float.is_finite v then
        let m = name n in
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s gauge\n%s %s\n" m m (prom_float v)))
    snap.Metrics.gauges;
  List.iter
    (fun (n, (h : Metrics.hist_snapshot)) ->
      let m = name n in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" m);
      (* Prometheus buckets are cumulative counts of samples <= le. *)
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m (le_label h.Metrics.bounds.(i))
               !cum))
        h.Metrics.counts;
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n%s_count %d\n" m (prom_float h.Metrics.sum) m
           h.Metrics.count))
    snap.Metrics.histograms;
  Buffer.contents buf

(* ---- JSON --------------------------------------------------------------- *)

let metrics_json (snap : Metrics.snapshot) =
  let section f kvs = Json.Obj (List.map (fun (n, v) -> (n, f v)) kvs) in
  Json.Obj
    [ ("counters", section (fun v -> Json.Int v) snap.Metrics.counters);
      ("gauges", section (fun v -> Json.Float v) snap.Metrics.gauges);
      ("histograms",
       section
         (fun (h : Metrics.hist_snapshot) ->
           Json.Obj
             [ ("count", Json.Int h.Metrics.count); ("sum", Json.Float h.Metrics.sum);
               ("p50", Json.Float (Metrics.hist_quantile h 0.5));
               ("p95", Json.Float (Metrics.hist_quantile h 0.95)) ])
         snap.Metrics.histograms) ]
