(** Cycle-level 2-D wormhole mesh with X-Y routing and tree multicast.

    One router per PE; the global buffer has a dedicated injection/ejection
    port on router 0 (the mesh corner, as in Simba's package organisation).
    Routers are input-queued with credit-based backpressure (a flit moves
    only when the downstream queue has space) and round-robin output
    arbitration; a packet's flits hold their output port(s) from head to
    tail (wormhole). Multicast replicates a flit to every branch port in
    the X-Y tree in the same cycle, stalling until all branches can accept
    it.

    The core is flat and preallocated: router [r]'s port [p] is index
    [r * 6 + p], each input queue is a fixed-capacity ring of
    [queue_depth] slots, and output sets are bitmasks, so {!step}
    allocates per packet (fork sub-lists, delivery records), never per
    flit hop. Every router's round-robin arbitration starts at input
    [cycles mod 6]. The behaviour is pinned cycle by cycle to the
    reference model kept in the test suite (DESIGN.md §16). *)

type t

type source = Gb | Node of int

val create : Spec.noc -> t

val inject : t -> source -> Packet.t -> unit
(** Queue a packet for injection (source queues are unbounded; the mesh
    drains them one flit per cycle per source). Multicast packets are
    split into unicasts automatically when the NoC was configured without
    multicast support. Raises [Robust.Failure.Error (Invalid_input _)] on
    a destination outside [-1 .. mesh_x * mesh_y - 1]. *)

val step : t -> unit
(** Advance one cycle. *)

val delivered : t -> (source * Packet.t) list
(** Packets fully delivered during the last {!step}, as
    [(destination, packet)]; a multicast packet appears once per
    destination reached. *)

val idle : t -> bool
(** No queued, in-flight, or partially delivered traffic remains. *)

val cycles : t -> int
val flit_hops : t -> int
(** Total link traversals so far (energy proxy, cross-checked against the
    analytical model in tests). *)

(** {2 Flit conservation ledger}

    Checked by the certification layer ([Certify.Noc_cert]): once {!idle}
    holds, [flits_injected + flits_forked = flits_ejected] must hold
    exactly — every flit that entered the mesh (plus every multicast-tree
    copy) left through an ejection port. *)

val flits_injected : t -> int
(** Flits moved from a source queue into a router. *)

val flits_ejected : t -> int
(** Flits that left through a local or global-buffer ejection port. *)

val flits_forked : t -> int
(** Extra flit copies created at multicast branch points. *)

val queued_flits : t -> int
(** Flits currently waiting in router input queues (sampled into the
    telemetry queue-depth histogram by the NoC simulator). *)
