(* Structured JSONL event log. Disabled is the steady state: every entry
   point is gated on one atomic load before any allocation, clock read or
   lock, so instrumented daemon paths cost nothing unless an operator
   arms the log. When armed, emission takes a mutex around the output
   channel (lines from concurrent domains/threads never interleave) and
   a per-event token bucket bounds the rate of any one event name. *)

type level = Debug | Info | Warn | Error
type output = Null | Stderr | File of string | Memory

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let enabled_flag = Atomic.make false
let min_rank = Atomic.make (level_rank Info)

let mu = Mutex.create ()

(* Everything below [mu]: the active output, its channel, the memory
   capture, and the rate-limit buckets. *)
let out = ref Null
let chan : out_channel option ref = ref None
let memory : string list ref = ref []

(* Token bucket per event name: [burst] tokens, refilled at [per_s]
   tokens per second. An event arriving with no token is dropped and
   counted; the next emitted line for that event carries the count in a
   ["suppressed"] field so droppage is visible in the stream. *)
type bucket = { mutable tokens : float; mutable last : float; mutable dropped : int }

let rl_burst = ref 20.
let rl_per_s = ref 50.
let buckets : (string, bucket) Hashtbl.t = Hashtbl.create 32
let suppressed_count = Atomic.make 0

let close_chan () =
  match !chan with
  | Some oc ->
    (try close_out oc with Sys_error _ -> ());
    chan := None
  | None -> ()

let set ?(level = Info) ?rate_limit output =
  Atomic.set min_rank (level_rank level);
  Mutex.protect mu (fun () ->
      close_chan ();
      (match rate_limit with
       | Some (burst, per_s) ->
         rl_burst := float_of_int (max 1 burst);
         rl_per_s := Float.max 0.1 per_s
       | None -> ());
      (match output with
       | File path -> chan := Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
       | Null | Stderr | Memory -> ());
      out := output;
      memory := [];
      Hashtbl.reset buckets;
      Atomic.set suppressed_count 0);
  Atomic.set enabled_flag (output <> Null)

let enabled () = Atomic.get enabled_flag

(* Called under [mu]. Returns the dropped-line count to surface on this
   line (0 = nothing was suppressed since the last emitted line). *)
let take_token event now =
  let b =
    match Hashtbl.find_opt buckets event with
    | Some b -> b
    | None ->
      let b = { tokens = !rl_burst; last = now; dropped = 0 } in
      Hashtbl.add buckets event b;
      b
  in
  b.tokens <- Float.min !rl_burst (b.tokens +. ((now -. b.last) *. !rl_per_s));
  b.last <- now;
  if b.tokens >= 1. then begin
    b.tokens <- b.tokens -. 1.;
    let d = b.dropped in
    b.dropped <- 0;
    Some d
  end
  else begin
    b.dropped <- b.dropped + 1;
    ignore (Atomic.fetch_and_add suppressed_count 1);
    None
  end

let render ~ts ~lvl ~event ~req ~hop ~dropped fields =
  let tag =
    match req with
    | Some id ->
      ("req", Json.String (Trace.request_id_hex id))
      :: (if hop > 0 then [ ("hop", Json.Int hop) ] else [])
    | None -> []
  in
  Json.to_string
    (Json.Obj
       ([ ("ts", Json.Float ts); ("level", Json.String (level_name lvl));
          ("event", Json.String event) ]
       @ tag
       @ List.map (fun (k, v) -> (k, Json.String v)) fields
       @ if dropped > 0 then [ ("suppressed", Json.Int dropped) ] else []))

let emit lvl ?req event fields =
  if Atomic.get enabled_flag && level_rank lvl >= Atomic.get min_rank then begin
    let req, hop =
      match req with
      | Some id -> (Some id, 0)
      | None ->
        (match Trace.current_request () with
         | Some (id, h) -> (Some id, h)
         | None -> (None, 0))
    in
    let now = Robust.Deadline.now () in
    Mutex.protect mu (fun () ->
        match take_token event now with
        | None -> ()
        | Some dropped ->
          let line = render ~ts:now ~lvl ~event ~req ~hop ~dropped fields in
          (match !out with
           | Null -> ()
           | Memory -> memory := line :: !memory
           | Stderr ->
             prerr_string line;
             prerr_newline ()
           | File _ ->
             (match !chan with
              | Some oc ->
                output_string oc line;
                output_char oc '\n';
                flush oc
              | None -> ())))
  end

let debug ?req event fields = emit Debug ?req event fields
let info ?req event fields = emit Info ?req event fields
let warn ?req event fields = emit Warn ?req event fields
let error ?req event fields = emit Error ?req event fields

let captured () = Mutex.protect mu (fun () -> List.rev !memory)
let suppressed_total () = Atomic.get suppressed_count
