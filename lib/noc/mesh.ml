type source = Gb | Node of int

let n_ports = 6
let port_n = 0 and port_s = 1 and port_e = 2 and port_w = 3
let port_local = 4 and port_gb = 5

type pending = { p : Packet.t; mutable sent : int }

module Itbl = Hashtbl.Make (Int)

(* Flat state. Input queue [q = r * n_ports + p] is router [r]'s input port
   [p]; per-output tables use the same index with [p] an output port. Each
   input queue is a ring of capacity [cap] held in parallel slot arrays
   (slot [q * cap + i]): credit backpressure never lets a queue hold more
   than [queue_depth] flits, so a hop writes ring cells and allocates
   nothing. Wormhole locking keeps a packet's flits contiguous in every
   queue, so only a head flit's slot carries its packet, destinations and
   output mask; a body flit belongs to the last packet whose head left its
   input. *)
type t = {
  spec : Spec.noc;
  n : int;  (** routers *)
  cap : int;  (** ring capacity per input queue *)
  port_to : int array;  (** [r * (n + 1) + d + 1]: X-Y output of [r] toward [d] *)
  nb : int array;  (** (router, output) -> downstream input queue; -1 = none *)
  head : int array;  (** per input queue: ring start *)
  len : int array;  (** per input queue: flits held *)
  snap : int array;  (** [len] at cycle start: only those flits may move this cycle *)
  popped : int array;  (** per input queue: cycle it last sent a flit *)
  tails : bool array;  (** per slot *)
  pkts : Packet.t array;  (** head slots only *)
  dests : int list array;  (** head slots only: destinations below this router *)
  masks : int array;  (** head slots only: output ports of [dests] *)
  active : Packet.t array;  (** per input: the packet whose body flits are passing *)
  route : int array;  (** per input: outputs held from head to tail; 0 = none *)
  out_lock : int array;  (** input port holding each output; -1 = free *)
  held : int array;  (** flits in each router's input queues *)
  gb_queue : pending Queue.t;
  node_queues : pending Queue.t array;
  mutable pending_pkts : int;  (** source-queue packets with flits left to inject *)
  assembly : int Itbl.t;  (** (packet id, node) key -> flits received *)
  mutable delivered_now : (source * Packet.t) list;
  mutable cycle : int;
  mutable hops : int;
  mutable inflight : int;
  (* flit conservation ledger, checked by the certification layer: once the
     mesh is idle, injected + forked = ejected must hold exactly *)
  mutable injected_flits : int;  (** flits that entered a router from a source queue *)
  mutable ejected_flits : int;  (** flits that left through a local/GB ejection port *)
  mutable forked_flits : int;  (** extra copies created by multicast tree branches *)
}

(* Output port toward destination [d] from router [r] of a mesh [mx] wide,
   X-Y routing. The global buffer (destination -1) sits behind router 0's
   GB port. *)
let xy_port mx r d =
  let x = r mod mx and y = r / mx and dx = Int.max d 0 mod mx and dy = Int.max d 0 / mx in
  if d = r then port_local
  else if d < 0 && r = 0 then port_gb
  else if dx > x then port_e
  else if dx < x then port_w
  else if dy > y then port_s
  else port_n

let no_pkt = { Packet.id = -1; src = -1; dests = []; flits = 1; tensor = Dims.W; step = 0 }

let create (spec : Spec.noc) =
  let mx = spec.Spec.mesh_x and my = spec.Spec.mesh_y in
  let n = mx * my and cap = max 1 spec.Spec.queue_depth in
  let nq = n * n_ports in
  let neighbor i =
    let r = i / n_ports and o = i mod n_ports in
    let x = r mod mx and y = r / mx in
    if o = port_n && y > 0 then ((r - mx) * n_ports) + port_s
    else if o = port_s && y < my - 1 then ((r + mx) * n_ports) + port_n
    else if o = port_e && x < mx - 1 then ((r + 1) * n_ports) + port_w
    else if o = port_w && x > 0 then ((r - 1) * n_ports) + port_e
    else -1
  in
  let slots v = Array.make (nq * cap) v in
  {
    spec; n; cap;
    port_to = Array.init (n * (n + 1)) (fun i -> xy_port mx (i / (n + 1)) ((i mod (n + 1)) - 1));
    nb = Array.init nq neighbor;
    head = Array.make nq 0; len = Array.make nq 0; snap = Array.make nq 0;
    popped = Array.make nq (-1);
    tails = slots false; pkts = slots no_pkt; dests = slots []; masks = slots 0;
    active = Array.make nq no_pkt; route = Array.make nq 0; out_lock = Array.make nq (-1);
    held = Array.make n 0;
    gb_queue = Queue.create (); node_queues = Array.init n (fun _ -> Queue.create ());
    pending_pkts = 0; assembly = Itbl.create 64; delivered_now = [];
    cycle = 0; hops = 0; inflight = 0;
    injected_flits = 0; ejected_flits = 0; forked_flits = 0;
  }

let inject t src pkt =
  let q = match src with Gb -> t.gb_queue | Node i -> t.node_queues.(i) in
  if List.exists (fun d -> d < -1 || d >= t.n) pkt.Packet.dests then
    raise Robust.Failure.(Error (Invalid_input "Mesh.inject: destination off the mesh"));
  let push p = Queue.push { p; sent = 0 } q; t.pending_pkts <- t.pending_pkts + 1 in
  if t.spec.Spec.multicast || List.length pkt.Packet.dests = 1 then push pkt
  else
    (* no hardware multicast: replicate as unicasts *)
    List.iter (fun d -> push { pkt with Packet.dests = [ d ] }) pkt.Packet.dests

let route_port t r d = t.port_to.((r * (t.n + 1)) + d + 1)

(* Output-port mask of a destination list. *)
let rec route_mask t r acc = function
  | [] -> acc
  | d :: ds -> route_mask t r (acc lor (1 lsl route_port t r d)) ds

let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1)

(* Free space as of cycle start minus this cycle's arrivals: a queue's own
   router pops at most one flit per cycle, so add that slot back. *)
let has_room t q =
  t.len.(q) + (if t.popped.(q) = t.cycle then 1 else 0) < t.spec.Spec.queue_depth

(* Append a flit to input queue [q]; returns its slot. *)
let push t q tail =
  let i = t.head.(q) + t.len.(q) in
  let s = (q * t.cap) + if i >= t.cap then i - t.cap else i in
  t.tails.(s) <- tail;
  t.len.(q) <- t.len.(q) + 1;
  t.held.(q / n_ports) <- t.held.(q / n_ports) + 1;
  t.inflight <- t.inflight + 1;
  s

let push_head t q pkt dests tail =
  let s = push t q tail in
  t.pkts.(s) <- pkt;
  t.dests.(s) <- dests;
  t.masks.(s) <- route_mask t (q / n_ports) 0 dests

let pop t q =
  let i = t.head.(q) + 1 in
  t.head.(q) <- (if i >= t.cap then 0 else i);
  t.len.(q) <- t.len.(q) - 1;
  t.held.(q / n_ports) <- t.held.(q / n_ports) - 1;
  t.inflight <- t.inflight - 1;
  t.popped.(q) <- t.cycle

let record_delivery t node (pkt : Packet.t) =
  t.ejected_flits <- t.ejected_flits + 1;
  let key = (pkt.Packet.id * (t.n + 1)) + node + 1 in
  let got = (try Itbl.find t.assembly key with Not_found -> 0) + 1 in
  if got >= pkt.Packet.flits then begin
    Itbl.remove t.assembly key;
    let dst = if node < 0 then Gb else Node node in
    t.delivered_now <- (dst, pkt) :: t.delivered_now
  end
  else Itbl.replace t.assembly key got

(* Every needed output must be free for input [ip] and have downstream room;
   ejection ports always sink, and X-Y routing never leaves the mesh. *)
let can_move t ri ip ports used =
  let ok = ref (ports land used = 0) in
  for o = 0 to n_ports - 1 do
    if !ok && ports land (1 lsl o) <> 0 then begin
      let i = (ri * n_ports) + o in
      let lock = t.out_lock.(i) and d = t.nb.(i) in
      if (lock <> -1 && lock <> ip) || (d >= 0 && not (has_room t d))
         || (d < 0 && o <> port_local && o <> port_gb)
      then ok := false
    end
  done;
  !ok

(* Move the front flit of input [ip] of router [ri] through [ports]. *)
let forward t ri ip ports =
  let base = ri * n_ports in
  let q = base + ip in
  let s = (q * t.cap) + t.head.(q) in
  let is_head = t.route.(q) = 0 and tail = t.tails.(s) in
  let pkt = if is_head then t.pkts.(s) else t.active.(q) and dests = t.dests.(s) in
  pop t q;
  let fan = popcount ports in
  (* every output beyond the first is a multicast-tree copy *)
  t.forked_flits <- t.forked_flits + fan - 1;
  for o = 0 to n_ports - 1 do
    if ports land (1 lsl o) <> 0 then begin
      t.hops <- t.hops + 1;
      let d = t.nb.(base + o) in
      if d < 0 then record_delivery t (if o = port_local then ri else -1) pkt
      else if not is_head then ignore (push t d tail)
      else if fan = 1 then push_head t d pkt dests tail
      else
        (* forward only the destinations that leave through o *)
        push_head t d pkt (List.filter (fun x -> route_port t ri x = o) dests) tail
    end
  done;
  (* a head takes its outputs until the tail releases them; a single-flit
     packet (head and tail at once) takes none *)
  if is_head <> tail then begin
    if is_head then t.active.(q) <- pkt;
    t.route.(q) <- (if is_head then ports else 0);
    for o = 0 to n_ports - 1 do
      if ports land (1 lsl o) <> 0 then t.out_lock.(base + o) <- (if is_head then ip else -1)
    done
  end

let try_inject t src q =
  if (not (Queue.is_empty src)) && has_room t q then begin
    let pn = Queue.peek src in
    let pkt = pn.p in
    let tail = pn.sent = pkt.Packet.flits - 1 in
    if pn.sent = 0 then push_head t q pkt pkt.Packet.dests tail else ignore (push t q tail);
    t.injected_flits <- t.injected_flits + 1;
    pn.sent <- pn.sent + 1;
    t.hops <- t.hops + 1;
    if tail then (ignore (Queue.pop src); t.pending_pkts <- t.pending_pkts - 1)
  end

let step t =
  t.delivered_now <- [];
  Array.blit t.len 0 t.snap 0 (Array.length t.len);
  (* every router's round-robin start input advances once per cycle from 0 *)
  let rr = t.cycle mod n_ports in
  (* route flits already inside the mesh, one flit per output per cycle *)
  for ri = 0 to t.n - 1 do
    if t.held.(ri) > 0 then begin
      let used = ref 0 in
      for k = rr to rr + n_ports - 1 do
        let ip = if k >= n_ports then k - n_ports else k in
        let q = (ri * n_ports) + ip in
        if t.snap.(q) > 0 then begin
          let r = t.route.(q) in
          let ports = if r <> 0 then r else t.masks.((q * t.cap) + t.head.(q)) in
          if can_move t ri ip ports !used then begin
            forward t ri ip ports;
            used := !used lor ports
          end
        end
      done
    end
  done;
  (* inject one flit per source into its router's input port *)
  try_inject t t.gb_queue port_gb;
  for i = 0 to t.n - 1 do
    try_inject t t.node_queues.(i) ((i * n_ports) + port_local)
  done;
  t.cycle <- t.cycle + 1

let delivered t = t.delivered_now
let idle t = t.pending_pkts = 0 && t.inflight = 0
let cycles t = t.cycle
let flit_hops t = t.hops
let flits_injected t = t.injected_flits
let flits_ejected t = t.ejected_flits
let flits_forked t = t.forked_flits
let queued_flits t = t.inflight
