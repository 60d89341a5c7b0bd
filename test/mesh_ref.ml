(* Reference model for the NoC mesh: the cycle-stepped, list-and-Queue core
   that [Mesh] replaced, kept unchanged so the equivalence property in
   [Test_mesh_equiv] can pin the flat core to it cycle by cycle. *)

type source = Gb | Node of int

type flit = { pkt : Packet.t; dests : int list; tail : bool }

let n_ports = 6
let port_n = 0
let port_s = 1
let port_e = 2
let port_w = 3
let port_local = 4
let port_gb = 5

type router = {
  in_q : flit Queue.t array;
  route_set : int list array;  (** output ports held by the packet active on each input *)
  rem : int array;  (** body flits still to pass for the active packet per input *)
  out_lock : int array;  (** input index holding each output; -1 = free *)
  mutable rr : int;  (** round-robin start input for this router *)
}

type pending = { p : Packet.t; mutable sent : int }

type t = {
  spec : Spec.noc;
  mx : int;
  my : int;
  routers : router array;
  gb_queue : pending Queue.t;
  node_queues : pending Queue.t array;
  (* delivery assembly: (packet id, node) -> flits received *)
  assembly : (int * int, int) Hashtbl.t;
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

let create (spec : Spec.noc) =
  let n = spec.Spec.mesh_x * spec.Spec.mesh_y in
  let router _ =
    {
      in_q = Array.init n_ports (fun _ -> Queue.create ());
      route_set = Array.make n_ports [];
      rem = Array.make n_ports 0;
      out_lock = Array.make n_ports (-1);
      rr = 0;
    }
  in
  {
    spec;
    mx = spec.Spec.mesh_x;
    my = spec.Spec.mesh_y;
    routers = Array.init n router;
    gb_queue = Queue.create ();
    node_queues = Array.init n (fun _ -> Queue.create ());
    assembly = Hashtbl.create 64;
    delivered_now = [];
    cycle = 0;
    hops = 0;
    inflight = 0;
    injected_flits = 0;
    ejected_flits = 0;
    forked_flits = 0;
  }

let inject t src pkt =
  let push q (p : Packet.t) = Queue.push { p; sent = 0 } q in
  let q = match src with Gb -> t.gb_queue | Node i -> t.node_queues.(i) in
  if t.spec.Spec.multicast || List.length pkt.Packet.dests = 1 then push q pkt
  else
    (* no hardware multicast: replicate as unicasts *)
    List.iter
      (fun d -> push q { pkt with Packet.dests = [ d ] })
      pkt.Packet.dests

(* Output port toward destination [d] from router [r], X-Y routing. The
   global buffer (destination -1) sits behind router 0's GB port. *)
let route_port t r d =
  let x = r mod t.mx and y = r / t.mx in
  let dx, dy = if d < 0 then (0, 0) else (d mod t.mx, d / t.mx) in
  if d >= 0 && d = r then port_local
  else if d < 0 && r = 0 then port_gb
  else if dx > x then port_e
  else if dx < x then port_w
  else if dy > y then port_s
  else port_n

(* Partition a destination list by output port. *)
let route_ports t r dests =
  let ports = Array.make n_ports false in
  List.iter (fun d -> ports.(route_port t r d) <- true) dests;
  ports

let neighbor t r o =
  let x = r mod t.mx and y = r / t.mx in
  match () with
  | () when o = port_n -> if y > 0 then Some (r - t.mx, port_s) else None
  | () when o = port_s -> if y < t.my - 1 then Some (r + t.mx, port_n) else None
  | () when o = port_e -> if x < t.mx - 1 then Some (r + 1, port_w) else None
  | () when o = port_w -> if x > 0 then Some (r - 1, port_e) else None
  | () -> None

let record_delivery t (dst : source) (f : flit) =
  t.ejected_flits <- t.ejected_flits + 1;
  let node = match dst with Gb -> -1 | Node i -> i in
  let key = (f.pkt.Packet.id, node) in
  let got = (try Hashtbl.find t.assembly key with Not_found -> 0) + 1 in
  if got >= f.pkt.Packet.flits then begin
    Hashtbl.remove t.assembly key;
    t.delivered_now <- (dst, f.pkt) :: t.delivered_now
  end
  else Hashtbl.replace t.assembly key got

let step t =
  t.delivered_now <- [];
  let depth = t.spec.Spec.queue_depth in
  (* snapshot of free space per (router, input port), consumed as flits move *)
  let space =
    Array.map (fun rt -> Array.map (fun q -> depth - Queue.length q) rt.in_q) t.routers
  in
  let out_used = Array.map (fun _ -> Array.make n_ports false) t.routers in
  (* only flits present at cycle start may move this cycle (prevents a flit
     from traversing several routers in one cycle as the router loop runs) *)
  let eligible =
    Array.map (fun rt -> Array.map (fun q -> Queue.length q > 0) rt.in_q) t.routers
  in
  (* route flits already inside the mesh, one flit per output per cycle *)
  Array.iteri
    (fun ri rt ->
      let moved_inputs = ref [] in
      for k = 0 to n_ports - 1 do
        let ip = (rt.rr + k) mod n_ports in
        if eligible.(ri).(ip) && not (List.mem ip !moved_inputs)
           && not (Queue.is_empty rt.in_q.(ip)) then begin
          let f = Queue.peek rt.in_q.(ip) in
          let is_head = rt.rem.(ip) = 0 in
          let ports =
            if is_head then route_ports t ri f.dests
            else begin
              let p = Array.make n_ports false in
              List.iter (fun o -> p.(o) <- true) rt.route_set.(ip);
              p
            end
          in
          (* every needed output must be free for us and have downstream room *)
          let ok = ref true in
          for o = 0 to n_ports - 1 do
            if ports.(o) then begin
              if out_used.(ri).(o) then ok := false;
              if rt.out_lock.(o) <> -1 && rt.out_lock.(o) <> ip then ok := false;
              (match neighbor t ri o with
               | Some (nr, nport) -> if space.(nr).(nport) <= 0 then ok := false
               | None ->
                 (* ejection ports always sink; mesh-edge misroutes cannot
                    happen with X-Y routing *)
                 if o <> port_local && o <> port_gb then ok := false)
            end
          done;
          if !ok then begin
            let f = Queue.pop rt.in_q.(ip) in
            t.inflight <- t.inflight - 1;
            moved_inputs := ip :: !moved_inputs;
            (* every output beyond the first is a multicast-tree copy *)
            let nports = ref 0 in
            Array.iter (fun used -> if used then incr nports) ports;
            t.forked_flits <- t.forked_flits + !nports - 1;
            for o = 0 to n_ports - 1 do
              if ports.(o) then begin
                out_used.(ri).(o) <- true;
                t.hops <- t.hops + 1;
                match neighbor t ri o with
                | Some (nr, nport) ->
                  (* forward only the destinations that leave through o *)
                  let sub =
                    List.filter (fun d -> route_port t ri d = o) f.dests
                  in
                  Queue.push { f with dests = sub } t.routers.(nr).in_q.(nport);
                  t.inflight <- t.inflight + 1;
                  space.(nr).(nport) <- space.(nr).(nport) - 1
                | None ->
                  if o = port_local then record_delivery t (Node ri) f
                  else record_delivery t Gb f
              end
            done;
            if is_head then begin
              let held = ref [] in
              for o = 0 to n_ports - 1 do
                if ports.(o) then held := o :: !held
              done;
              if f.tail then
                (* single-flit packet: nothing to hold *)
                rt.route_set.(ip) <- []
              else begin
                rt.route_set.(ip) <- !held;
                List.iter (fun o -> rt.out_lock.(o) <- ip) !held;
                rt.rem.(ip) <- f.pkt.Packet.flits - 1
              end
            end
            else begin
              rt.rem.(ip) <- rt.rem.(ip) - 1;
              if f.tail then begin
                List.iter (fun o -> rt.out_lock.(o) <- -1) rt.route_set.(ip);
                rt.route_set.(ip) <- []
              end
            end
          end
        end
      done;
      rt.rr <- (rt.rr + 1) mod n_ports)
    t.routers;
  (* inject one flit per source into its router's input port *)
  let try_inject q ri ip =
    if not (Queue.is_empty q) then begin
      let pn = Queue.peek q in
      if space.(ri).(ip) > 0 then begin
        let tail = pn.sent = pn.p.Packet.flits - 1 in
        Queue.push
          { pkt = pn.p; dests = pn.p.Packet.dests; tail }
          t.routers.(ri).in_q.(ip);
        space.(ri).(ip) <- space.(ri).(ip) - 1;
        t.inflight <- t.inflight + 1;
        t.injected_flits <- t.injected_flits + 1;
        pn.sent <- pn.sent + 1;
        t.hops <- t.hops + 1;
        if tail then ignore (Queue.pop q)
      end
    end
  in
  try_inject t.gb_queue 0 port_gb;
  Array.iteri (fun i q -> try_inject q i port_local) t.node_queues;
  t.cycle <- t.cycle + 1

let delivered t = t.delivered_now

let idle t =
  Queue.is_empty t.gb_queue
  && Array.for_all Queue.is_empty t.node_queues
  && t.inflight = 0

let cycles t = t.cycle
let flit_hops t = t.hops
let flits_injected t = t.injected_flits
let flits_ejected t = t.ejected_flits
let flits_forked t = t.forked_flits

let queued_flits t =
  Array.fold_left
    (fun acc rt -> Array.fold_left (fun a q -> a + Queue.length q) acc rt.in_q)
    0 t.routers
