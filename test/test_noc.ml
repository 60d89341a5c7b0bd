(* Tests for the NoC substrate: wormhole mesh, DRAM model, and the
   transaction-level simulation driver. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let noc_spec = Spec.baseline.Spec.noc

let run_until_idle ?(cap = 100_000) mesh =
  let deliveries = ref [] in
  let n = ref 0 in
  while (not (Mesh.idle mesh)) && !n < cap do
    incr n;
    Mesh.step mesh;
    deliveries := Mesh.delivered mesh @ !deliveries
  done;
  check_bool "drained before cap" true (Mesh.idle mesh);
  !deliveries

let test_unicast_delivery () =
  let mesh = Mesh.create noc_spec in
  (* GB (router 0) to node 15 = (3,3): 6 hops + injection/ejection *)
  let pkt = Packet.make ~id:1 ~src:(-1) ~dests:[ 15 ] ~flits:4 ~tensor:Dims.W ~step:0 in
  Mesh.inject mesh Mesh.Gb pkt;
  let delivered = run_until_idle mesh in
  check_int "one delivery" 1 (List.length delivered);
  (match delivered with
   | [ (Mesh.Node 15, p) ] -> check_int "right packet" 1 p.Packet.id
   | _ -> Alcotest.fail "expected delivery at node 15");
  (* 4 flits, ~8 hops each: latency bounded but nontrivial *)
  check_bool "took multiple cycles" true (Mesh.cycles mesh >= 8)

let test_multicast_delivery () =
  let mesh = Mesh.create noc_spec in
  let dests = [ 0; 3; 12; 15 ] in
  let pkt = Packet.make ~id:7 ~src:(-1) ~dests ~flits:3 ~tensor:Dims.IA ~step:0 in
  Mesh.inject mesh Mesh.Gb pkt;
  let delivered = run_until_idle mesh in
  check_int "all four corners" 4 (List.length delivered);
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "node %d reached" d)
        true
        (List.exists (function Mesh.Node n, _ -> n = d | _ -> false) delivered))
    dests

let test_multicast_saves_hops () =
  let dests = [ 12; 13; 14; 15 ] in
  let send spec =
    let mesh = Mesh.create spec in
    Mesh.inject mesh Mesh.Gb
      (Packet.make ~id:1 ~src:(-1) ~dests ~flits:8 ~tensor:Dims.W ~step:0);
    ignore (run_until_idle mesh);
    Mesh.flit_hops mesh
  in
  let with_mc = send noc_spec in
  let without_mc = send { noc_spec with Spec.multicast = false } in
  check_bool "multicast uses fewer link traversals" true (with_mc < without_mc)

let test_node_to_gb () =
  let mesh = Mesh.create noc_spec in
  let pkt = Packet.make ~id:3 ~src:9 ~dests:[ -1 ] ~flits:2 ~tensor:Dims.OA ~step:0 in
  Mesh.inject mesh (Mesh.Node 9) pkt;
  let delivered = run_until_idle mesh in
  check_bool "arrived at GB" true
    (List.exists (function Mesh.Gb, p -> p.Packet.id = 3 | _ -> false) delivered)

let test_many_packets_all_arrive () =
  let mesh = Mesh.create noc_spec in
  let n = 16 * 8 in
  for i = 0 to n - 1 do
    Mesh.inject mesh Mesh.Gb
      (Packet.make ~id:i ~src:(-1) ~dests:[ i mod 16 ] ~flits:5 ~tensor:Dims.W ~step:0)
  done;
  let delivered = run_until_idle ~cap:1_000_000 mesh in
  check_int "every packet delivered" n (List.length delivered)

let test_cross_traffic () =
  (* simultaneous GB->PE and PE->GB traffic must not deadlock *)
  let mesh = Mesh.create noc_spec in
  for i = 0 to 15 do
    Mesh.inject mesh Mesh.Gb
      (Packet.make ~id:i ~src:(-1) ~dests:[ i ] ~flits:6 ~tensor:Dims.IA ~step:0);
    Mesh.inject mesh (Mesh.Node i)
      (Packet.make ~id:(100 + i) ~src:i ~dests:[ -1 ] ~flits:6 ~tensor:Dims.OA ~step:0)
  done;
  let delivered = run_until_idle ~cap:1_000_000 mesh in
  check_int "32 deliveries" 32 (List.length delivered)

let test_packet_invalid_args () =
  (* malformed packets surface as typed robustness failures, not escaping
     Invalid_argument *)
  Alcotest.check_raises "empty dests"
    (Robust.Failure.Error (Robust.Failure.Invalid_input "Packet.make: empty destination list"))
    (fun () -> ignore (Packet.make ~id:0 ~src:0 ~dests:[] ~flits:1 ~tensor:Dims.W ~step:0));
  Alcotest.check_raises "zero flits"
    (Robust.Failure.Error (Robust.Failure.Invalid_input "Packet.make: flits < 1")) (fun () ->
      ignore (Packet.make ~id:0 ~src:0 ~dests:[ 1 ] ~flits:0 ~tensor:Dims.W ~step:0))

(* --- DRAM model --- *)

let dram_spec = Spec.baseline.Spec.dram

let run_dram_until dram id =
  let cycles = ref 0 in
  while (not (List.mem id (Dram_model.completed dram))) && !cycles < 100_000 do
    incr cycles;
    Dram_model.step dram
  done;
  !cycles

let test_dram_row_hit_faster () =
  let d1 = Dram_model.create dram_spec in
  let a = Dram_model.request d1 ~bytes:256 ~row:5 in
  let t_first = run_dram_until d1 a in
  let b = Dram_model.request d1 ~bytes:256 ~row:5 in
  let t_hit = run_dram_until d1 b in
  let d2 = Dram_model.create dram_spec in
  let c = Dram_model.request d2 ~bytes:256 ~row:5 in
  ignore (run_dram_until d2 c);
  (* same bank (row mod banks), different row: forced precharge + activate *)
  let e = Dram_model.request d2 ~bytes:256 ~row:(5 + dram_spec.Spec.banks) in
  let t_miss = run_dram_until d2 e in
  check_bool "row hit faster than row miss" true (t_hit < t_miss);
  check_bool "first access pays a miss" true (t_first > t_hit)

let test_dram_fcfs () =
  let d = Dram_model.create dram_spec in
  let a = Dram_model.request d ~bytes:64 ~row:1 in
  let b = Dram_model.request d ~bytes:64 ~row:2 in
  let done_order = ref [] in
  for _ = 1 to 10_000 do
    Dram_model.step d;
    done_order := !done_order @ Dram_model.completed d
  done;
  Alcotest.(check (list int)) "in order" [ a; b ] !done_order;
  check_bool "idle after" false (Dram_model.busy d)

let test_dram_busy_accounting () =
  let d = Dram_model.create dram_spec in
  ignore (Dram_model.request d ~bytes:128 ~row:0);
  check_bool "busy with queued work" true (Dram_model.busy d);
  for _ = 1 to 10_000 do
    Dram_model.step d
  done;
  check_bool "busy cycles recorded" true (Dram_model.total_busy_cycles d > 0)

(* --- Simulation driver --- *)

let test_sim_small_exact () =
  let layer = Layer.create ~name:"sim_t" ~r:1 ~s:1 ~p:4 ~q:4 ~c:8 ~k:8 ~n:1 () in
  let rng = Prim.Rng.create 21 in
  match Sampler.valid rng Spec.baseline layer with
  | None -> Alcotest.fail "sampler failed"
  | Some m ->
    let s = Noc_sim.simulate Spec.baseline m in
    check_bool "not sampled (small)" false s.Noc_sim.sampled;
    check_bool "latency positive" true (s.Noc_sim.latency > 0.);
    check_bool "latency >= compute floor" true
      (s.Noc_sim.latency
       >= float_of_int (s.Noc_sim.compute_cycles_per_step * s.Noc_sim.total_steps) -. 1e-6);
    check_bool "packets flowed" true (s.Noc_sim.packets > 0)

let test_sim_deterministic () =
  let layer = Zoo.find "g3_56_4_4_1" in
  let m = (Cosa.schedule ~time_limit:2. Spec.baseline layer).Cosa.mapping in
  let a = Noc_sim.simulate Spec.baseline m in
  let b = Noc_sim.simulate Spec.baseline m in
  Alcotest.(check (float 0.)) "same latency" a.Noc_sim.latency b.Noc_sim.latency;
  check_int "same hops" a.Noc_sim.flit_hops b.Noc_sim.flit_hops

let test_sim_sampling_extrapolates () =
  let layer = Zoo.find "3_14_256_256_1" in
  let m = Cosa.trivial_mapping Spec.baseline layer in
  (* the all-DRAM schedule has a huge step count: sampling must kick in *)
  let s = Noc_sim.simulate ~max_steps:8 Spec.baseline m in
  check_bool "sampled" true s.Noc_sim.sampled;
  check_bool "extrapolated beyond simulated" true
    (s.Noc_sim.latency > float_of_int s.Noc_sim.simulated_cycles)

let test_sim_slower_than_model () =
  (* the cycle-level simulator sees congestion that the perfect-overlap
     analytical model hides *)
  let layer = Zoo.find "g3_28_8_8_1" in
  let m = (Cosa.schedule ~time_limit:2. Spec.baseline layer).Cosa.mapping in
  let sim = (Noc_sim.simulate Spec.baseline m).Noc_sim.latency in
  let model = (Model.evaluate Spec.baseline m).Model.latency in
  check_bool "sim >= 0.8x model" true (sim >= 0.8 *. model)

let test_dram_frfcfs_prefers_hits () =
  (* a row-hit request that arrives later is served before an older miss *)
  let d = Dram_model.create dram_spec in
  let warm = Dram_model.request d ~bytes:64 ~row:3 in
  ignore (run_dram_until d warm);
  let miss = Dram_model.request d ~bytes:64 ~row:(3 + dram_spec.Spec.banks) in
  let hit = Dram_model.request d ~bytes:64 ~row:3 in
  let order = ref [] in
  for _ = 1 to 10_000 do
    Dram_model.step d;
    order := !order @ Dram_model.completed d
  done;
  Alcotest.(check (list int)) "hit first" [ hit; miss ] !order;
  check_bool "hit counted" true (Dram_model.row_hit_count d >= 1);
  check_bool "miss counted" true (Dram_model.row_miss_count d >= 2)

let test_dram_bank_parallel_overlap () =
  (* two misses in different banks overlap their activations, so together
     they finish sooner than twice a serial miss *)
  let serial =
    let d = Dram_model.create dram_spec in
    let a = Dram_model.request d ~bytes:64 ~row:0 in
    let t1 = run_dram_until d a in
    let b = Dram_model.request d ~bytes:64 ~row:dram_spec.Spec.banks in
    t1 + run_dram_until d b
  in
  let parallel =
    let d = Dram_model.create dram_spec in
    let _ = Dram_model.request d ~bytes:64 ~row:0 in
    let b = Dram_model.request d ~bytes:64 ~row:1 in
    run_dram_until d b
  in
  check_bool "bank overlap helps" true (parallel < serial)

let test_sim_cycle_budget_typed () =
  (* regression: exhausting the cycle budget used to [failwith]; it must now
     surface as a typed [Iteration_limit] from [simulate_r] and as
     [Robust.Failure.Error] from the legacy wrapper *)
  let layer = Zoo.find "3_14_256_256_1" in
  let m = Cosa.trivial_mapping Spec.baseline layer in
  (match Noc_sim.simulate_r ~max_steps:8 ~max_cycles:100 Spec.baseline m with
   | Error Robust.Failure.Iteration_limit -> ()
   | Error f -> Alcotest.fail ("unexpected failure: " ^ Robust.Failure.to_string f)
   | Ok _ -> Alcotest.fail "expected the cycle budget to be exhausted");
  Alcotest.check_raises "legacy wrapper raises typed error"
    (Robust.Failure.Error Robust.Failure.Iteration_limit)
    (fun () -> ignore (Noc_sim.simulate ~max_steps:8 ~max_cycles:100 Spec.baseline m))

(* The run polls its fault site and deadline every 256 simulated cycles;
   the trivial mapping below runs for thousands, so the first poll stops it. *)
let poll_mapping () = Cosa.trivial_mapping Spec.baseline (Zoo.find "3_14_256_256_1")

let expect_failure want = function
  | Error f when Robust.Failure.equal f want -> ()
  | Error f -> Alcotest.fail ("unexpected failure: " ^ Robust.Failure.to_string f)
  | Ok _ -> Alcotest.fail ("expected " ^ Robust.Failure.to_string want)

let test_sim_poll_fault () =
  let m = poll_mapping () in
  expect_failure (Robust.Failure.Injected "noc.step")
    (Robust.Fault.with_faults ~rate:1.0 ~only:[ "noc.step" ] 11 (fun () ->
         Noc_sim.simulate_r ~max_steps:8 Spec.baseline m))

let test_sim_poll_deadline () =
  let m = poll_mapping () in
  expect_failure Robust.Failure.Deadline_exceeded
    (Noc_sim.simulate_r ~max_steps:8 ~deadline:(Robust.Deadline.after 0.) Spec.baseline m)

let suite =
  ( "noc",
    [
      Alcotest.test_case "unicast delivery" `Quick test_unicast_delivery;
      Alcotest.test_case "multicast delivery" `Quick test_multicast_delivery;
      Alcotest.test_case "multicast saves hops" `Quick test_multicast_saves_hops;
      Alcotest.test_case "node to GB" `Quick test_node_to_gb;
      Alcotest.test_case "many packets" `Quick test_many_packets_all_arrive;
      Alcotest.test_case "cross traffic" `Quick test_cross_traffic;
      Alcotest.test_case "packet validation" `Quick test_packet_invalid_args;
      Alcotest.test_case "dram row hit/miss" `Quick test_dram_row_hit_faster;
      Alcotest.test_case "dram fcfs" `Quick test_dram_fcfs;
      Alcotest.test_case "dram busy" `Quick test_dram_busy_accounting;
      Alcotest.test_case "dram FR-FCFS" `Quick test_dram_frfcfs_prefers_hits;
      Alcotest.test_case "dram bank overlap" `Quick test_dram_bank_parallel_overlap;
      Alcotest.test_case "sim small exact" `Quick test_sim_small_exact;
      Alcotest.test_case "sim deterministic" `Slow test_sim_deterministic;
      Alcotest.test_case "sim sampling" `Quick test_sim_sampling_extrapolates;
      Alcotest.test_case "sim cycle budget typed" `Quick test_sim_cycle_budget_typed;
      Alcotest.test_case "sim poll: injected fault" `Quick test_sim_poll_fault;
      Alcotest.test_case "sim poll: expired deadline" `Quick test_sim_poll_deadline;
      Alcotest.test_case "sim vs model" `Slow test_sim_slower_than_model;
    ] )

