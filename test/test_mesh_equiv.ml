(* Equivalence of the flat mesh core with the reference model: under random
   traffic both must deliver the same packets in the same order on the same
   cycle, and keep identical counters, after every step. *)

type case = {
  side : int;  (** the mesh is side x side *)
  multicast : bool;
  depth : int;
  traffic : (int * int * int list * int) list;
      (** (inject cycle, source node or -1 for the GB, dests, flits) *)
}

let gen =
  let open QCheck.Gen in
  let* side = oneofl [ 2; 4; 8 ] in
  let n = side * side in
  let* multicast = bool in
  let* depth = int_range 1 4 in
  let pkt =
    let* at = int_range 0 40 in
    let* src = int_range (-1) (n - 1) in
    let* ndests = int_range 1 (min 6 n) in
    let* dests = list_repeat ndests (int_range (-1) (n - 1)) in
    let* flits = int_range 1 8 in
    return (at, src, List.sort_uniq compare dests, flits)
  in
  let* npkts = int_range 1 24 in
  let* traffic = list_repeat npkts pkt in
  return { side; multicast; depth; traffic }

let print c =
  Printf.sprintf "%dx%d multicast=%b depth=%d packets=[%s]" c.side c.side c.multicast
    c.depth
    (String.concat "; "
       (List.map
          (fun (at, src, dests, flits) ->
            Printf.sprintf "@%d %d->{%s} x%d" at src
              (String.concat "," (List.map string_of_int dests))
              flits)
          c.traffic))

let ref_node = function Mesh_ref.Gb -> -1 | Mesh_ref.Node i -> i
let node = function Mesh.Gb -> -1 | Mesh.Node i -> i

(* Steps both meshes until both are idle after the last injection (or a
   cycle cap, for traffic that deadlocks both alike); fails on the first
   cycle where they disagree. *)
let equivalent c =
  let spec =
    { Spec.baseline.Spec.noc with
      Spec.mesh_x = c.side; mesh_y = c.side; multicast = c.multicast; queue_depth = c.depth }
  in
  let a = Mesh.create spec and b = Mesh_ref.create spec in
  let packets =
    List.mapi
      (fun id (at, src, dests, flits) ->
        (at, src, Packet.make ~id ~src ~dests ~flits ~tensor:Dims.W ~step:0))
      c.traffic
  in
  let last = List.fold_left (fun acc (at, _, _) -> max acc at) 0 packets in
  let fail cyc what = QCheck.Test.fail_reportf "cycle %d: %s differs" cyc what in
  let rec run cyc =
    List.iter
      (fun (at, src, pkt) ->
        if at = cyc then
          if src < 0 then (Mesh.inject a Mesh.Gb pkt; Mesh_ref.inject b Mesh_ref.Gb pkt)
          else (Mesh.inject a (Mesh.Node src) pkt; Mesh_ref.inject b (Mesh_ref.Node src) pkt))
      packets;
    Mesh.step a;
    Mesh_ref.step b;
    let da = List.map (fun (d, p) -> (node d, p)) (Mesh.delivered a) in
    let db = List.map (fun (d, p) -> (ref_node d, p)) (Mesh_ref.delivered b) in
    if da <> db then fail cyc "delivered";
    let counters =
      [
        ("cycles", Mesh.cycles, Mesh_ref.cycles);
        ("flit_hops", Mesh.flit_hops, Mesh_ref.flit_hops);
        ("flits_injected", Mesh.flits_injected, Mesh_ref.flits_injected);
        ("flits_ejected", Mesh.flits_ejected, Mesh_ref.flits_ejected);
        ("flits_forked", Mesh.flits_forked, Mesh_ref.flits_forked);
        ("queued_flits", Mesh.queued_flits, Mesh_ref.queued_flits);
      ]
    in
    List.iter (fun (name, fa, fb) -> if fa a <> fb b then fail cyc name) counters;
    if Mesh.idle a <> Mesh_ref.idle b then fail cyc "idle";
    if (cyc < last || not (Mesh.idle a)) && cyc < 4000 then run (cyc + 1)
  in
  run 0;
  true

let prop_equivalent =
  QCheck.Test.make ~name:"flat mesh matches the reference cycle by cycle" ~count:300
    (QCheck.make ~print gen) equivalent

let suite =
  ( "mesh equivalence",
    [ QCheck_alcotest.to_alcotest prop_equivalent ] )
