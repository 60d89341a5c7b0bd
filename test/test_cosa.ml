(* Tests for the CoSA core: formulation, decode, repair, objective, and
   end-to-end scheduling. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let arch = Spec.baseline
let tiny = Layer.create ~name:"cosa_tiny" ~r:1 ~s:1 ~p:4 ~q:4 ~c:8 ~k:8 ~n:1 ()

let test_formulation_shape () =
  let f = Cosa_formulation.build arch tiny in
  check_bool "has variables" true (Milp.Lp.num_vars f.Cosa_formulation.lp > 0);
  check_bool "has constraints" true (Milp.Lp.num_constrs f.Cosa_formulation.lp > 0);
  (* groups: P=4 -> (P,2,2); Q likewise; C=8 -> (C,2,3); K likewise *)
  check_int "group count" 4 (Array.length f.Cosa_formulation.groups);
  (* active dims: P, Q, C, K *)
  check_int "active dims" 4 (Array.length f.Cosa_formulation.active);
  (* rank matrix rows only for active dims, sized by slot count *)
  check_int "rank slots" 4
    (Array.length f.Cosa_formulation.rank.(Dims.dim_index Dims.P));
  check_int "inactive dim has no slots" 0
    (Array.length f.Cosa_formulation.rank.(Dims.dim_index Dims.R))

let test_formulation_two_stage_smaller () =
  let joint = Cosa_formulation.build arch tiny in
  let two = Cosa_formulation.build ~joint_permutation:false arch tiny in
  check_bool "two-stage has fewer vars" true
    (Milp.Lp.num_vars two.Cosa_formulation.lp < Milp.Lp.num_vars joint.Cosa_formulation.lp)

let test_per_factor_encoding_bigger () =
  let grouped = Cosa_formulation.build ~joint_permutation:false arch tiny in
  let per_factor =
    Cosa_formulation.build ~joint_permutation:false ~symmetry_grouping:false arch tiny
  in
  check_bool "per-factor encoding has more vars" true
    (Milp.Lp.num_vars per_factor.Cosa_formulation.lp
     > Milp.Lp.num_vars grouped.Cosa_formulation.lp)

let test_mip_start_feasible () =
  (* a mapping decoded from the MIP's own solution must encode back into a
     feasible assignment: this round-trips the formulation, the decoder,
     and the warm-start encoder (including the DRAM-boundary indicator
     variables) against each other *)
  let f = Cosa_formulation.build arch tiny in
  let res =
    Milp.Bb.solve ~node_limit:20_000 ~time_limit:5. ~priority:f.Cosa_formulation.priority
      f.Cosa_formulation.lp
  in
  (match res.Milp.Bb.status with
   | Milp.Bb.Optimal | Milp.Bb.Feasible -> ()
   | _ -> Alcotest.fail "tiny MIP should solve");
  let m = Cosa_decode.decode f res in
  (match Cosa_formulation.mip_start f m with
   | None -> Alcotest.fail "mip_start failed on a decoded mapping"
   | Some x ->
     check_bool "round-trip warm start feasible" true
       (Milp.Bb.check_feasible f.Cosa_formulation.lp x));
  (* sampler-produced valid mappings encode too; they may violate only the
     (deliberately conservative) IA capacity rows *)
  let rng = Prim.Rng.create 77 in
  let encoded = ref 0 in
  for _ = 1 to 10 do
    match Sampler.valid rng arch tiny with
    | Some m -> (match Cosa_formulation.mip_start f m with Some _ -> incr encoded | None -> ())
    | None -> ()
  done;
  check_bool "sampled mappings encodable" true (!encoded >= 5)

let test_schedule_valid_everywhere () =
  List.iter
    (fun name ->
      let layer = Zoo.find name in
      let r = Cosa.schedule ~time_limit:2. arch layer in
      check_bool (name ^ " valid") true (Mapping.is_valid arch r.Cosa.mapping))
    [ "g3_56_4_4_1"; "fc1000"; "3_56_64_64_1" ]

let test_schedule_one_dimensional_layer () =
  (* degenerate layer: every bound 1 except C *)
  let l = Layer.create ~name:"deg" ~r:1 ~s:1 ~p:1 ~q:1 ~c:64 ~k:1 ~n:1 () in
  let r = Cosa.schedule ~time_limit:2. arch l in
  check_bool "valid" true (Mapping.is_valid arch r.Cosa.mapping)

let test_schedule_unit_layer () =
  let l = Layer.create ~name:"unit" ~r:1 ~s:1 ~p:1 ~q:1 ~c:1 ~k:1 ~n:1 () in
  let r = Cosa.schedule ~time_limit:2. arch l in
  check_bool "valid" true (Mapping.is_valid arch r.Cosa.mapping)

let test_schedule_beats_trivial () =
  let layer = Zoo.find "g3_28_8_8_1" in
  let r = Cosa.schedule ~time_limit:2. arch layer in
  let cosa_lat = (Model.evaluate arch r.Cosa.mapping).Model.latency in
  let trivial_lat =
    (Model.evaluate arch (Cosa.trivial_mapping arch layer)).Model.latency
  in
  check_bool "beats the all-DRAM schedule" true (cosa_lat < trivial_lat)

let test_strategies_all_valid () =
  let layer = Zoo.find "g3_14_16_16_1" in
  List.iter
    (fun s ->
      let r = Cosa.schedule ~strategy:s ~time_limit:2. arch layer in
      check_bool "valid" true (Mapping.is_valid arch r.Cosa.mapping))
    [ Cosa.Auto; Cosa.Joint; Cosa.Two_stage ]

let test_trivial_mapping_valid () =
  List.iter
    (fun (_, layer) ->
      check_bool (layer.Layer.name ^ " trivial valid") true
        (Mapping.is_valid arch (Cosa.trivial_mapping arch layer)))
    (List.filteri (fun i _ -> i < 8) (List.concat_map (fun (s, ls) -> List.map (fun l -> (s, l)) ls) Zoo.suites))

let test_repair_fixes_overflow () =
  let lp dim bound = { Mapping.dim; bound } in
  let l = Layer.create ~name:"rep" ~r:3 ~s:3 ~p:1 ~q:1 ~c:256 ~k:256 ~n:1 () in
  let broken =
    Mapping.make l
      [|
        { Mapping.temporal = [ lp Dims.R 3; lp Dims.S 3; lp Dims.C 256; lp Dims.K 256 ];
          spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
      |]
  in
  check_bool "broken before" false (Mapping.is_valid arch broken);
  let fixed, changed = Cosa_decode.repair arch broken in
  check_bool "repair changed it" true changed;
  check_bool "valid after repair" true (Mapping.is_valid arch fixed);
  (* factorisation must be preserved *)
  List.iter
    (fun d ->
      check_int (Dims.dim_name d)
        (Layer.padded_bound l d)
        (Mapping.dim_product fixed ~upto:(Spec.level_count arch) d))
    Dims.all_dims

let test_repair_noop_on_valid () =
  let rng = Prim.Rng.create 31 in
  match Sampler.valid rng arch tiny with
  | None -> Alcotest.fail "sampler failed"
  | Some m ->
    let _, changed = Cosa_decode.repair arch m in
    check_bool "no change needed" false changed

let test_objective_breakdown () =
  let r = Cosa.schedule ~time_limit:2. arch tiny in
  let o = r.Cosa.objective in
  check_bool "util positive" true (o.Cosa.util > 0.);
  check_bool "comp consistent" true
    (Float.abs (o.Cosa.comp -. log (float_of_int (Mapping.total_temporal r.Cosa.mapping)))
     < 1e-6);
  check_bool "traf nonnegative" true (o.Cosa.traf >= 0.);
  let w = Cosa.calibrate arch in
  check_bool "total = weighted sum" true
    (Float.abs
       (o.Cosa.total
        -. ((-.w.Cosa.w_util *. o.Cosa.util) +. (w.Cosa.w_comp *. o.Cosa.comp)
            +. (w.Cosa.w_traf *. o.Cosa.traf)))
     < 1e-6)

let test_breakdown_ranks_mappings () =
  (* the Eq.12 objective should prefer the CoSA schedule over the trivial
     all-DRAM one *)
  let layer = Zoo.find "g3_28_8_8_1" in
  let r = Cosa.schedule ~time_limit:2. arch layer in
  let trivial = Cosa.trivial_mapping arch layer in
  let w = Cosa.calibrate arch in
  let o_cosa = Cosa.breakdown_of_mapping ~weights:w arch r.Cosa.mapping in
  let o_triv = Cosa.breakdown_of_mapping ~weights:w arch trivial in
  check_bool "cosa objective lower" true (o_cosa.Cosa.total < o_triv.Cosa.total)

let test_calibrate_weights () =
  let w = Cosa.calibrate arch in
  check_bool "positive weights" true
    (w.Cosa.w_util > 0. && w.Cosa.w_comp > 0. && w.Cosa.w_traf > 0.);
  let w64 = Cosa.calibrate Spec.pe64 in
  check_bool "more PEs -> traffic at least as important" true
    (w64.Cosa.w_traf >= w.Cosa.w_traf)

let test_decode_respects_rank () =
  (* in joint mode, if the MIP is solved to optimality, the decoded NoC
     order must be a permutation of the active dims *)
  let f = Cosa_formulation.build arch tiny in
  let res =
    Milp.Bb.solve ~node_limit:20_000 ~time_limit:5. ~priority:f.Cosa_formulation.priority
      f.Cosa_formulation.lp
  in
  match res.Milp.Bb.status with
  | Milp.Bb.Optimal | Milp.Bb.Feasible ->
    let m = Cosa_decode.decode f res in
    (* every dim appears at most once per level *)
    Array.iter
      (fun lm ->
        let dims = List.map (fun (l : Mapping.loop) -> l.Mapping.dim) lm.Mapping.temporal in
        check_int "no dup dims in level" (List.length dims)
          (List.length (List.sort_uniq compare dims)))
      m.Mapping.levels
  | _ -> Alcotest.fail "tiny MIP should solve"

let test_noc_spatial_pinning () =
  let f =
    Cosa_formulation.build ~joint_permutation:false ~noc_spatial:[ (Dims.K, 8) ] arch tiny
  in
  let res =
    Milp.Bb.solve ~node_limit:20_000 ~time_limit:5. ~priority:f.Cosa_formulation.priority
      f.Cosa_formulation.lp
  in
  (match res.Milp.Bb.status with
   | Milp.Bb.Optimal | Milp.Bb.Feasible ->
     let m = Cosa_decode.decode f res in
     let k_spatial =
       List.fold_left
         (fun acc (l : Mapping.loop) ->
           if l.Mapping.dim = Dims.K then acc * l.Mapping.bound else acc)
         1
         m.Mapping.levels.(arch.Spec.noc_level).Mapping.spatial
     in
     check_int "K pinned to 8 PEs" 8 k_spatial
   | _ -> Alcotest.fail "pinned MIP should solve")

let test_tuner () =
  let layer = Zoo.find "g3_28_8_8_1" in
  let plain = Cosa.schedule ~time_limit:1.5 arch layer in
  let plain_lat = (Model.evaluate arch plain.Cosa.mapping).Model.latency in
  let grid = [ Cosa.calibrate arch; { (Cosa.calibrate arch) with Cosa.w_traf = 2. } ] in
  let tuned = Cosa_tuner.tune ~grid ~time_limit:1.5 arch layer in
  check_int "tried both" 2 tuned.Cosa_tuner.tried;
  check_bool "valid" true (Mapping.is_valid arch tuned.Cosa_tuner.best.Cosa.mapping);
  let tuned_lat = (Model.evaluate arch tuned.Cosa_tuner.best.Cosa.mapping).Model.latency in
  (* the grid contains the calibrated point, so tuning can't lose *)
  check_bool "no regression" true (tuned_lat <= plain_lat +. 1e-6);
  Alcotest.check_raises "empty grid" (Invalid_argument "Cosa_tuner.tune: empty grid")
    (fun () -> ignore (Cosa_tuner.tune ~grid:[] arch layer))

let prop_schedule_always_valid =
  QCheck.Test.make ~name:"schedule is valid on random layers" ~count:10
    (QCheck.make
       QCheck.Gen.(
         map
           (fun (r, (p, (c, k))) -> Layer.create ~r ~s:r ~p ~q:p ~c ~k ~n:1 ())
           (pair (int_range 1 3) (pair (int_range 1 16) (pair (int_range 1 32) (int_range 1 32))))))
    (fun layer ->
      let r = Cosa.schedule ~time_limit:1. arch layer in
      Mapping.is_valid arch r.Cosa.mapping)

(* A chosen mapping that needed repair is counted: the two-stage decode
   of this layer at 3,000 nodes is repaired. *)
let test_repairs_counted () =
  Telemetry.Sink.set Telemetry.Sink.Memory;
  Telemetry.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.Sink.set Telemetry.Sink.Null) @@ fun () ->
  let r =
    Cosa.schedule ~strategy:Cosa.Two_stage ~node_limit:3_000 ~time_limit:60. arch
      (Zoo.find "3_14_256_256_1")
  in
  check_bool "repaired" true r.Cosa.repaired;
  check_int "cosa.repairs" 1
    (Telemetry.Metrics.counter_value (Telemetry.Metrics.snapshot ()) "cosa.repairs")

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "cosa",
    [
      Alcotest.test_case "formulation shape" `Quick test_formulation_shape;
      Alcotest.test_case "two-stage smaller" `Quick test_formulation_two_stage_smaller;
      Alcotest.test_case "per-factor bigger" `Quick test_per_factor_encoding_bigger;
      Alcotest.test_case "mip_start feasible" `Quick test_mip_start_feasible;
      Alcotest.test_case "schedule valid" `Slow test_schedule_valid_everywhere;
      Alcotest.test_case "degenerate layer" `Quick test_schedule_one_dimensional_layer;
      Alcotest.test_case "unit layer" `Quick test_schedule_unit_layer;
      Alcotest.test_case "beats trivial" `Quick test_schedule_beats_trivial;
      Alcotest.test_case "all strategies" `Slow test_strategies_all_valid;
      Alcotest.test_case "trivial valid" `Quick test_trivial_mapping_valid;
      Alcotest.test_case "repair fixes overflow" `Quick test_repair_fixes_overflow;
      Alcotest.test_case "repair noop" `Quick test_repair_noop_on_valid;
      Alcotest.test_case "objective breakdown" `Quick test_objective_breakdown;
      Alcotest.test_case "breakdown ranks" `Quick test_breakdown_ranks_mappings;
      Alcotest.test_case "calibrate" `Quick test_calibrate_weights;
      Alcotest.test_case "decode rank sanity" `Quick test_decode_respects_rank;
      Alcotest.test_case "noc spatial pinning" `Quick test_noc_spatial_pinning;
      Alcotest.test_case "tuner extension" `Slow test_tuner;
      Alcotest.test_case "repairs counted" `Quick test_repairs_counted;
      qc prop_schedule_always_valid;
    ] )

