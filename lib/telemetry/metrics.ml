(* Atomics-based metrics registry. Registration (find-or-create by name)
   takes a mutex; recording is lock-free — counters and bucket counts are
   [Atomic.fetch_and_add], the histogram sum is a CAS loop. Recording
   checks [Sink.enabled] first and does nothing (no allocation, no clock
   read) while telemetry is off. *)

type counter = { cname : string; cv : int Atomic.t }
type gauge = { gname : string; gv : float Atomic.t }

type histogram = {
  hname : string;
  bounds : float array;  (* ascending upper bounds; buckets has one extra overflow slot *)
  buckets : int Atomic.t array;
  hcount : int Atomic.t;
  hsum : float Atomic.t;
}

let mu = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let duration_buckets =
  [| 1e-4; 3e-4; 1e-3; 3e-3; 0.01; 0.03; 0.1; 0.3; 1.; 3.; 10.; 30. |]

let linear_buckets ~lo ~step ~count =
  Array.init count (fun i -> lo +. (step *. float_of_int i))

let exponential_buckets ~lo ~ratio ~count =
  Array.init count (fun i -> lo *. (ratio ** float_of_int i))

let find_or_create tbl name create =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
        let m = create () in
        Hashtbl.add tbl name m;
        m)

let counter name =
  find_or_create counters name (fun () -> { cname = name; cv = Atomic.make 0 })

let gauge name =
  find_or_create gauges name (fun () -> { gname = name; gv = Atomic.make 0. })

let histogram ?(buckets = duration_buckets) name =
  find_or_create histograms name (fun () ->
      {
        hname = name;
        bounds = Array.copy buckets;
        buckets = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
        hcount = Atomic.make 0;
        hsum = Atomic.make 0.;
      })

let incr c = if Sink.enabled () then ignore (Atomic.fetch_and_add c.cv 1)
let add c n = if Sink.enabled () then ignore (Atomic.fetch_and_add c.cv n)
let set_gauge g v = if Sink.enabled () then Atomic.set g.gv v

(* Stage timers: a counter of nanoseconds, fed by [timer_start]/[timer_stop]
   pairs. Disabled, a pair is one atomic load and no clock read. Enabled,
   they read the raw clock: these run several times per node LP, where the
   shared high-water latch of [Robust.Deadline.now] would be contended
   between domains; a clock step backwards just adds nothing. *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
let timer_start () = if Sink.enabled () then now_ns () else 0

let timer_stop c t0 =
  if t0 <> 0 then ignore (Atomic.fetch_and_add c.cv (max 0 (now_ns () - t0)))

let rec atomic_add_float a d =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. d)) then atomic_add_float a d

let observe h v =
  if Sink.enabled () then begin
    let n = Array.length h.bounds in
    let i = ref 0 in
    while !i < n && v > h.bounds.(!i) do
      Stdlib.incr i
    done;
    ignore (Atomic.fetch_and_add h.buckets.(!i) 1);
    ignore (Atomic.fetch_and_add h.hcount 1);
    atomic_add_float h.hsum v
  end

(* ---- snapshot / reset -------------------------------------------------- *)

type hist_snapshot = {
  bounds : float array;
  counts : int array;
  count : int;
  sum : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let sorted_of_tbl tbl f =
  Mutex.protect mu (fun () -> Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () =
  {
    counters = sorted_of_tbl counters (fun c -> Atomic.get c.cv);
    gauges = sorted_of_tbl gauges (fun g -> Atomic.get g.gv);
    histograms =
      sorted_of_tbl histograms (fun h ->
          (* Read order matters under concurrent [observe]: the writer
             bumps its bucket first, then [hcount]. Reading the count
             before the bucket array therefore guarantees
             sum-of-buckets >= count in every snapshot — a sample can
             appear in a bucket without being counted yet, never the
             other way around (no "torn" histogram). *)
          let count = Atomic.get h.hcount in
          let sum = Atomic.get h.hsum in
          let counts = Array.map Atomic.get h.buckets in
          { bounds = Array.append h.bounds [| infinity |]; counts; count; sum });
  }

let reset () =
  Mutex.protect mu (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cv 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.gv 0.) gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.hcount 0;
          Atomic.set h.hsum 0.)
        histograms)

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let hist_quantile (h : hist_snapshot) q =
  if h.count = 0 then 0.
  else begin
    let rank = Float.max 1. (Float.round (q *. float_of_int h.count)) in
    let acc = ref 0 and res = ref h.bounds.(Array.length h.bounds - 1) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if float_of_int !acc >= rank then begin
             res := h.bounds.(i);
             raise Exit
           end)
         h.counts
     with Exit -> ());
    !res
  end

let report_of snap =
  let buf = Buffer.create 1024 in
  let nonzero_counters = List.filter (fun (_, v) -> v <> 0) snap.counters in
  if nonzero_counters <> [] then begin
    let tab = Prim.Texttab.create [ "counter"; "value" ] in
    List.iter
      (fun (n, v) -> Prim.Texttab.add_row tab [ n; string_of_int v ])
      nonzero_counters;
    Buffer.add_string buf (Prim.Texttab.render tab)
  end;
  let nonzero_gauges = List.filter (fun (_, v) -> v <> 0.) snap.gauges in
  if nonzero_gauges <> [] then begin
    let tab = Prim.Texttab.create [ "gauge"; "value" ] in
    List.iter
      (fun (n, v) -> Prim.Texttab.add_row tab [ n; Prim.Texttab.cell_f v ])
      nonzero_gauges;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Prim.Texttab.render tab)
  end;
  let live_hists = List.filter (fun (_, h) -> h.count > 0) snap.histograms in
  if live_hists <> [] then begin
    let tab =
      Prim.Texttab.create [ "histogram"; "count"; "mean"; "~p50"; "~p95"; "max<=" ]
    in
    List.iter
      (fun (n, h) ->
        let maxb =
          (* upper bound of the highest non-empty bucket *)
          let r = ref 0. in
          Array.iteri (fun i c -> if c > 0 then r := h.bounds.(i)) h.counts;
          !r
        in
        Prim.Texttab.add_row tab
          [ n; string_of_int h.count;
            Prim.Texttab.cell_f (h.sum /. float_of_int h.count);
            Prim.Texttab.cell_f (hist_quantile h 0.5);
            Prim.Texttab.cell_f (hist_quantile h 0.95); Prim.Texttab.cell_f maxb ])
      live_hists;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Prim.Texttab.render tab)
  end;
  if Buffer.length buf = 0 then Buffer.add_string buf "(no metrics recorded)\n";
  Buffer.contents buf

let report () = report_of (snapshot ())
