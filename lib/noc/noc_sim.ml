type stats = {
  latency : float;
  simulated_cycles : int;
  simulated_steps : int;
  total_steps : int;
  sampled : bool;
  flit_hops : int;
  dram_busy_cycles : int;
  packets : int;
  compute_cycles_per_step : int;
  flits_injected : int;
  flits_ejected : int;
  flits_forked : int;
}

let fi = float_of_int

type feed = {
  tensor : Dims.tensor;
  flits : int;  (** per distinct-tile packet *)
  sends : int;  (** scaled transfer rounds *)
  groups : int list array;  (** distinct tile -> destination nodes *)
  direct_dram_bytes : int;  (** per-send DRAM fetch when the tensor bypasses the GB *)
  gb_fetches : int;  (** scaled GB fill count when staged through the GB *)
  gb_tile_bytes : int;
  mutable injected : int;
  mutable completed : int;  (** sends fully delivered *)
  mutable deliveries_open : int;  (** outstanding (packet, dest) deliveries of in-flight sends *)
  mutable gb_fetched : int;
  mutable gb_requested : int;
  mutable pending_fetch : bool;  (** a direct DRAM fetch for the next send is in flight *)
  mutable fetch_ready : bool;  (** the next send's direct fetch completed *)
}

(* Partition the used PEs into groups that share the same tile of [v]:
   decompose the PE index into mixed-radix digits of the NoC-level spatial
   loops and key on the digits of loops relevant to [v]. *)
let tile_groups arch (m : Mapping.t) v =
  let noc = arch.Spec.noc_level in
  let loops = m.Mapping.levels.(noc).Mapping.spatial in
  let used = List.fold_left (fun a (l : Mapping.loop) -> a * l.Mapping.bound) 1 loops in
  let key_of pe =
    let rec digits i = function
      | [] -> []
      | (l : Mapping.loop) :: rest ->
        let d = i mod l.Mapping.bound in
        let keep = Dims.model_relevant l.Mapping.dim v in
        (if keep then [ d ] else []) @ digits (i / l.Mapping.bound) rest
    in
    digits pe loops
  in
  let tbl = Hashtbl.create 16 in
  for pe = 0 to used - 1 do
    let k = key_of pe in
    let cur = try Hashtbl.find tbl k with Not_found -> [] in
    Hashtbl.replace tbl k (pe :: cur)
  done;
  (used, Array.of_list (Hashtbl.fold (fun _ pes acc -> List.rev pes :: acc) tbl []))

let word_bytes arch v = max 1 ((arch.Spec.precision_bits v + 7) / 8)

(* Internal abort used for deadline expiry and injected faults mid-run;
   never escapes [simulate_r]. *)
exception Sim_abort of Robust.Failure.t

(* Telemetry: utilisation/occupancy histograms sampled every 256 cycles
   (piggybacking on the existing budget-poll stride, so the disabled path
   costs one flag load per poll), plus per-request DRAM counters recorded
   by [Dram_model] itself. *)
let h_link_util =
  Telemetry.Metrics.histogram
    ~buckets:(Telemetry.Metrics.linear_buckets ~lo:0. ~step:0.05 ~count:21)
    "noc.link_utilization"

let h_queue_depth =
  Telemetry.Metrics.histogram
    ~buckets:(Telemetry.Metrics.exponential_buckets ~lo:1. ~ratio:2. ~count:10)
    "noc.queue_depth"

let h_dram_queue =
  Telemetry.Metrics.histogram
    ~buckets:(Telemetry.Metrics.exponential_buckets ~lo:1. ~ratio:2. ~count:8)
    "dram.queue_depth"

let simulate_impl ?(max_steps = 48) ?(max_cycles = 20_000_000)
    ?(deadline = Robust.Deadline.none) arch (m : Mapping.t) =
  let noc = arch.Spec.noc_level in
  let dram_lvl = Spec.dram_level arch in
  let total_steps =
    let acc = ref 1 in
    for i = noc to dram_lvl do
      acc := !acc * Mapping.temporal_product m i
    done;
    !acc
  in
  let steps = min total_steps max_steps in
  let ratio = fi steps /. fi total_steps in
  let scale r = max 1 (int_of_float (Float.round (r *. ratio))) in
  let cycles_per_step =
    let acc = ref 1 in
    for i = 0 to noc - 1 do
      acc := !acc * Mapping.temporal_product m i
    done;
    max 1 !acc
  in
  let used = ref 1 in
  let mk_feed v =
    let chain = Model.storage_chain arch v in
    let pe_level = List.fold_left (fun acc l -> if l <= noc then max acc l else acc) 0 chain in
    let parent = List.fold_left (fun acc l -> if l > noc then min acc l else acc) max_int chain in
    let tile = Mapping.tile_words arch m pe_level v in
    let bits = arch.Spec.precision_bits v in
    let flits =
      max 1 (int_of_float (ceil (tile *. fi bits /. fi arch.Spec.noc.Spec.flit_bits)))
    in
    let u, groups = tile_groups arch m v in
    used := max !used u;
    let sends = scale (Model.refills m v ~lo:pe_level) in
    let direct_dram_bytes, gb_fetches, gb_tile_bytes =
      if parent >= dram_lvl then
        (int_of_float tile * word_bytes arch v * Array.length groups, 0, 0)
      else
        ( 0,
          scale (Model.refills m v ~lo:parent),
          int_of_float (Mapping.tile_words arch m parent v) * word_bytes arch v )
    in
    {
      tensor = v;
      flits;
      sends;
      groups;
      direct_dram_bytes;
      gb_fetches;
      gb_tile_bytes;
      injected = 0;
      completed = 0;
      deliveries_open = 0;
      gb_fetched = 0;
      gb_requested = 0;
      pending_fetch = false;
      fetch_ready = false;
    }
  in
  let w_feed = mk_feed Dims.W and ia_feed = mk_feed Dims.IA in
  let oa = mk_feed Dims.OA in
  let used = !used in
  let mesh = Mesh.create arch.Spec.noc in
  let dram = Dram_model.create arch.Spec.dram in
  (* PE state *)
  let pe_step = Array.make used 0 in
  let pe_compute = Array.make used 0 in
  let arrived = Array.make_matrix used 3 0 in
  (* packet bookkeeping *)
  let next_pkt = ref 0 in
  let packets = ref 0 in
  let dram_fetch_tag : (int, [ `Gb of feed | `Direct of feed ]) Hashtbl.t =
    Hashtbl.create 64
  in
  let min_pe_step () =
    (* an int loop: [Stdlib.min] is polymorphic and calls the generic compare *)
    let m = ref steps in
    for pe = 0 to used - 1 do
      if pe_step.(pe) < !m then m := pe_step.(pe)
    done;
    !m
  in
  let needed (f : feed) s =
    max 1 (int_of_float (ceil (fi ((s + 1) * f.sends) /. fi steps)))
  in
  let step_of_send (f : feed) e = e * steps / f.sends in
  let oa_sends_at s =
    (* drains scheduled when the cumulative quota crosses an integer *)
    let q k = k * oa.sends / steps in
    q (s + 1) - q s
  in
  let oa_expected =
    (* every used PE drains once per send round *)
    oa.sends * used
  in
  let oa_delivered = ref 0 in
  let oa_dram_every =
    if oa.gb_fetches > 0 then max 1 (oa_expected / oa.gb_fetches) else 0
  in
  let inject_send (f : feed) =
    let e = f.injected in
    Array.iter
      (fun dests ->
        let id = !next_pkt in
        incr next_pkt;
        incr packets;
        let pkt =
          Packet.make ~id ~src:(-1) ~dests ~flits:f.flits ~tensor:f.tensor ~step:e
        in
        f.deliveries_open <- f.deliveries_open + List.length dests;
        Mesh.inject mesh Mesh.Gb pkt)
      f.groups;
    f.injected <- e + 1
  in
  let row_counter = ref 0 in
  let issue_dram_fetch tag bytes =
    incr row_counter;
    let id = Dram_model.request dram ~bytes ~row:!row_counter in
    match tag with None -> () | Some tg -> Hashtbl.replace dram_fetch_tag id tg
  in
  let feed_logic (f : feed) =
    if f.sends > 0 && f.injected < f.sends then begin
      let e = f.injected in
      let window_ok = step_of_send f e <= min (min_pe_step () + 1) (steps - 1) in
      let inflight_ok = f.injected - f.completed < 2 in
      if window_ok && inflight_ok then begin
        if f.direct_dram_bytes > 0 then begin
          (* fetch straight from DRAM, one request per send *)
          if f.fetch_ready then begin
            f.fetch_ready <- false;
            inject_send f
          end
          else if not f.pending_fetch then begin
            f.pending_fetch <- true;
            issue_dram_fetch (Some (`Direct f)) f.direct_dram_bytes
          end
        end
        else begin
          let gate = if f.gb_fetches = 0 then 0 else e * f.gb_fetches / f.sends in
          if f.gb_fetched > gate || f.gb_fetches = 0 then inject_send f
          else if f.gb_requested <= gate && f.gb_requested < f.gb_fetches then begin
            f.gb_requested <- f.gb_requested + 1;
            issue_dram_fetch (Some (`Gb f)) f.gb_tile_bytes
          end
        end
      end
    end
  in
  let cycle = ref 0 in
  let finished () =
    Array.for_all (fun s -> s >= steps) pe_step
    && !oa_delivered >= oa_expected
    && not (Dram_model.busy dram)
    && Mesh.idle mesh
  in
  let abort = ref None in
  (* one utilisation sample = flit-hops accumulated over the last 256-cycle
     window, normalised by the mesh's directed link count *)
  let nlinks =
    let mx = arch.Spec.noc.Spec.mesh_x and my = arch.Spec.noc.Spec.mesh_y in
    max 1 (2 * (((mx - 1) * my) + (mx * (my - 1))))
  in
  let last_hops = ref 0 in
  (try
  while (not (finished ())) && !cycle < max_cycles do
    incr cycle;
    (* budget/fault poll: cheap enough at this stride to be free, frequent
       enough that an expired deadline stops the run within ~256 cycles *)
    if !cycle land 255 = 0 then begin
      (match Robust.Fault.check "noc.step" with
       | Ok () -> ()
       | Error f -> raise (Sim_abort f));
      if Robust.Deadline.expired deadline then
        raise (Sim_abort Robust.Failure.Deadline_exceeded);
      if Telemetry.Sink.enabled () then begin
        let hops = Mesh.flit_hops mesh in
        Telemetry.Metrics.observe h_link_util
          (float_of_int (hops - !last_hops) /. (256. *. float_of_int nlinks));
        last_hops := hops;
        Telemetry.Metrics.observe h_queue_depth (fi (Mesh.queued_flits mesh));
        Telemetry.Metrics.observe h_dram_queue (fi (Dram_model.queue_length dram))
      end
    end;
    (* DRAM *)
    Dram_model.step dram;
    List.iter
      (fun id ->
        match Hashtbl.find_opt dram_fetch_tag id with
        | Some (`Gb f) ->
          f.gb_fetched <- f.gb_fetched + 1;
          Hashtbl.remove dram_fetch_tag id
        | Some (`Direct f) ->
          f.pending_fetch <- false;
          f.fetch_ready <- true;
          Hashtbl.remove dram_fetch_tag id
        | None -> ())
      (Dram_model.completed dram);
    (* global buffer: issue fetches and sends *)
    feed_logic w_feed;
    feed_logic ia_feed;
    (* network *)
    Mesh.step mesh;
    List.iter
      (fun (dst, (pkt : Packet.t)) ->
        match dst with
        | Mesh.Node node ->
          (* output tiles travel only to the GB, so a node receives W or IA *)
          let f = match pkt.Packet.tensor with Dims.W -> w_feed | _ -> ia_feed in
          let vi = Dims.tensor_index f.tensor in
          if node < used then arrived.(node).(vi) <- arrived.(node).(vi) + 1;
          f.deliveries_open <- f.deliveries_open - 1;
          (* a send completes when all its packets reached all destinations *)
          if f.deliveries_open = 0 then f.completed <- f.injected
        | Mesh.Gb ->
          incr oa_delivered;
          if oa_dram_every > 0 && !oa_delivered mod oa_dram_every = 0 then
            issue_dram_fetch None (max 1 oa.gb_tile_bytes))
      (Mesh.delivered mesh);
    (* PEs *)
    for pe = 0 to used - 1 do
      if pe_compute.(pe) > 0 then begin
        pe_compute.(pe) <- pe_compute.(pe) - 1;
        if pe_compute.(pe) = 0 then begin
          let s = pe_step.(pe) in
          let drains = oa_sends_at s in
          for _ = 1 to drains do
            let id = !next_pkt in
            incr next_pkt;
            incr packets;
            let pkt =
              Packet.make ~id ~src:pe ~dests:[ -1 ] ~flits:oa.flits ~tensor:Dims.OA ~step:s
            in
            Mesh.inject mesh (Mesh.Node pe) pkt
          done;
          pe_step.(pe) <- s + 1
        end
      end
      else if pe_step.(pe) < steps then begin
        let s = pe_step.(pe) in
        let ready =
          arrived.(pe).(Dims.tensor_index Dims.W) >= needed w_feed s
          && arrived.(pe).(Dims.tensor_index Dims.IA) >= needed ia_feed s
        in
        if ready then pe_compute.(pe) <- cycles_per_step
      end
    done
  done
  with
  | Sim_abort f -> abort := Some f
  | Robust.Failure.Error f ->
    (* typed argument errors from packet construction etc. *)
    abort := Some f);
  match !abort with
  | Some f -> Error f
  | None ->
  if !cycle >= max_cycles then
    (* exhausting the cycle budget without converging (a deadlock or an
       invalid mapping's feed schedule) is the simulator's iteration limit *)
    Error Robust.Failure.Iteration_limit
  else
    Ok
      {
        latency = fi !cycle /. ratio;
        simulated_cycles = !cycle;
        simulated_steps = steps;
        total_steps;
        sampled = steps < total_steps;
        flit_hops = Mesh.flit_hops mesh;
        dram_busy_cycles = Dram_model.total_busy_cycles dram;
        packets = !packets;
        compute_cycles_per_step = cycles_per_step;
        flits_injected = Mesh.flits_injected mesh;
        flits_ejected = Mesh.flits_ejected mesh;
        flits_forked = Mesh.flits_forked mesh;
      }

(* Public entry point: one "noc.simulate" span per run. *)
let simulate_r ?max_steps ?max_cycles ?deadline arch m =
  Telemetry.Trace.with_span ~cat:"noc" "noc.simulate" (fun () ->
      simulate_impl ?max_steps ?max_cycles ?deadline arch m)

(* Legacy wrapper: raises [Robust.Failure.Error] where [simulate_r] returns
   [Error]. Prefer [simulate_r] in new code. *)
let simulate ?max_steps ?max_cycles arch m =
  match simulate_r ?max_steps ?max_cycles arch m with
  | Ok s -> s
  | Error f -> raise (Robust.Failure.Error f)
