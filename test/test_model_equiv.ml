(* Equivalence of the flat mapping evaluator with the list-walking
   reference in [Model_ref]: the same samples draw for draw (and the same
   generator state after each), the same violation lists in the same
   order, and every float of the analytical model bitwise equal. *)

open Model_ref

type case = { arch_name : string; layer : Layer.t; seed : int }

let archs = [ ("baseline", Spec.baseline); ("pe64", Spec.pe64); ("big_sram", Spec.big_sram);
              ("edge", Spec.edge) ]

(* every ResNet-50 shape, plus bounds that [pad_to_factorable] pads
   (11 -> 12, 13 -> 14, 17 -> 18, 19 -> 20, 23 -> 24) *)
let padded =
  [ Layer.create ~name:"pad13" ~r:3 ~s:3 ~p:13 ~q:11 ~c:17 ~k:19 ~n:1 ();
    Layer.create ~name:"pad_s2" ~stride:2 ~r:7 ~s:7 ~p:23 ~q:13 ~c:3 ~k:11 ~n:2 () ]

let shapes = Array.of_list (Zoo.resnet50 @ padded)

let gen arch_name =
  let open QCheck.Gen in
  let random_layer =
    let* r = int_range 1 3 and* p = int_range 1 30 and* c = int_range 1 64
    and* k = int_range 1 64 and* n = int_range 1 2 and* stride = int_range 1 2 in
    return (Layer.create ~stride ~r ~s:r ~p ~q:p ~c ~k ~n ())
  in
  let* layer = frequency [ (3, oneofa shapes); (1, random_layer) ] in
  let* seed = int_bound 1_000_000 in
  return { arch_name; layer; seed }

let print c = Printf.sprintf "%s %s seed=%d" c.arch_name (Layer.to_string c.layer) c.seed

let model_bits (t : Model.t) =
  let b = Int64.bits_of_float in
  ( Array.map
      (Array.map (fun (c : Model.tensor_counts) ->
           List.map b [ c.Model.tile; c.Model.fills; c.Model.reads; c.Model.updates ]))
      t.Model.counts,
    List.map b
      [ t.Model.compute_cycles; t.Model.latency; t.Model.energy_pj; t.Model.noc_energy_pj;
        t.Model.macs; t.Model.pe_utilization ],
    Array.map b t.Model.transfer_cycles,
    List.map (fun (name, e) -> (name, b e)) t.Model.energy_breakdown,
    List.map
      (fun (v, (tr : Model.tensor_traffic)) ->
        (v, b tr.Model.tile_words, b tr.Model.steps, tr.Model.distinct, tr.Model.multicast))
      t.Model.traffic )

let violation_bits = function
  | Mapping.Buffer_overflow (i, v, words, cap) ->
    Printf.sprintf "buffer %d %s %h %h" i (Dims.tensor_name v) words cap
  | v -> Mapping.violation_to_string v

let fail c what = QCheck.Test.fail_reportf "%s: %s" (print c) what

(* Draw with [f] and [f_ref] from two generators seeded alike: the results
   and the generators' next outputs must agree. *)
let same_draws c what seed f f_ref =
  let a = Prim.Rng.create seed and b = Prim.Rng.create seed in
  let x = f a and y = f_ref b in
  if x <> y then fail c (what ^ " differs");
  if Prim.Rng.int64 a <> Prim.Rng.int64 b then fail c (what ^ " left the generator elsewhere");
  x

let check_mapping c arch m =
  if List.map violation_bits (Mapping.validate arch m)
     <> List.map violation_bits (Mapping_ref.validate arch m)
  then fail c ("validate differs on " ^ Mapping.fingerprint m);
  if Mapping.is_valid arch m <> Mapping_ref.is_valid arch m then fail c "is_valid differs";
  if model_bits (Model.evaluate arch m) <> model_bits (Model_ref.evaluate arch m) then
    fail c ("evaluate differs on " ^ Mapping.fingerprint m);
  for lo = 0 to Spec.level_count arch do
    List.iter
      (fun v ->
        if Int64.bits_of_float (Model.refills m v ~lo)
           <> Int64.bits_of_float (Model_ref.refills m v ~lo)
        then fail c (Printf.sprintf "refills %s ~lo:%d differs" (Dims.tensor_name v) lo))
      Dims.all_tensors
  done

(* Per case: 10 raw samples and 2 constructive ones, each checked through
   validate, the model and refills. *)
let equivalent c =
  let arch = List.assoc c.arch_name archs in
  for i = 1 to 10 do
    let m =
      same_draws c "raw sample" ((16 * c.seed) + i)
        (fun r -> Sampler.raw r arch c.layer)
        (fun r -> Sampler_ref.raw r arch c.layer)
    in
    check_mapping c arch m
  done;
  for i = 11 to 12 do
    match
      same_draws c "valid sample" ((16 * c.seed) + i)
        (fun r -> Sampler.valid ~max_attempts:3 r arch c.layer)
        (fun r -> Sampler_ref.valid ~max_attempts:3 r arch c.layer)
    with
    | Some m -> check_mapping c arch m
    | None -> ()
  done;
  true

let prop arch_name =
  QCheck.Test.make
    ~name:(Printf.sprintf "flat evaluator matches the reference on %s" arch_name)
    ~count:1000 (QCheck.make ~print (gen arch_name)) equivalent

(* noc_orders unranks shuffled permutation ranks instead of shuffling the
   materialised permutations: whole Hybrid searches must agree *)
let test_hybrid_matches_reference () =
  List.iter
    (fun (arch_name, arch) ->
      List.iter
        (fun name ->
          let layer = Zoo.find name in
          let a = Hybrid_mapper.search ~threads:2 ~termination:40 (Prim.Rng.create 5) arch layer
          and b = Hybrid_ref.search ~threads:2 ~termination:40 (Prim.Rng.create 5) arch layer in
          let what = arch_name ^ " " ^ name in
          Alcotest.(check int) (what ^ " samples") b.Baseline.samples a.Baseline.samples;
          Alcotest.(check int) (what ^ " valid") b.Baseline.valid a.Baseline.valid;
          Alcotest.(check int64) (what ^ " best metric")
            (Int64.bits_of_float b.Baseline.best_metric)
            (Int64.bits_of_float a.Baseline.best_metric);
          Alcotest.(check (option string)) (what ^ " best mapping")
            (Option.map Mapping.fingerprint b.Baseline.best)
            (Option.map Mapping.fingerprint a.Baseline.best))
        [ "fc1000"; "3_14_256_256_1"; "7_112_3_64_2" ])
    archs

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "model_equiv",
    List.map (fun (name, _) -> qc (prop name)) archs
    @ [ Alcotest.test_case "hybrid search matches reference" `Quick
          test_hybrid_matches_reference ] )
