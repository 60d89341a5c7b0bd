(* Tests for the mapping representation, validation, and samplers. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let arch = Spec.baseline

let lp dim bound = { Mapping.dim; bound }

let small_layer = Layer.create ~name:"tiny" ~r:1 ~s:1 ~p:4 ~q:4 ~c:8 ~k:8 ~n:1 ()

(* a straightforward valid mapping for [small_layer] *)
let small_mapping =
  Mapping.make small_layer
    [|
      { Mapping.temporal = [ lp Dims.P 4; lp Dims.Q 4 ]; spatial = [ lp Dims.K 8 ] };
      { Mapping.temporal = []; spatial = [] };
      { Mapping.temporal = [ lp Dims.C 2 ]; spatial = [] };
      { Mapping.temporal = []; spatial = [ lp Dims.C 4 ] };
      { Mapping.temporal = []; spatial = [] };
      { Mapping.temporal = []; spatial = [] };
    |]

let test_dim_product () =
  check_int "P below dram" 4 (Mapping.dim_product small_mapping ~upto:6 Dims.P);
  check_int "C below L3" 2 (Mapping.dim_product small_mapping ~upto:3 Dims.C);
  check_int "C total" 8 (Mapping.dim_product small_mapping ~upto:6 Dims.C);
  check_int "K spatial counts" 8 (Mapping.dim_product small_mapping ~upto:6 Dims.K);
  check_int "upto 0 is 1" 1 (Mapping.dim_product small_mapping ~upto:0 Dims.P)

let test_products () =
  check_int "spatial L0" 8 (Mapping.spatial_product small_mapping 0);
  check_int "spatial L3" 4 (Mapping.spatial_product small_mapping 3);
  check_int "temporal L0" 16 (Mapping.temporal_product small_mapping 0);
  check_int "total temporal" 32 (Mapping.total_temporal small_mapping);
  check_int "PEs used" 4 (Mapping.pe_count_used arch small_mapping)

let test_tile_words_halo () =
  let l = Layer.create ~name:"halo" ~r:3 ~s:3 ~p:8 ~q:8 ~c:4 ~k:4 ~n:1 ~stride:2 () in
  let m =
    Mapping.make l
      [|
        { Mapping.temporal = [ lp Dims.P 8; lp Dims.Q 8; lp Dims.R 3; lp Dims.S 3 ];
          spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = [ lp Dims.C 4; lp Dims.K 4 ]; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
      |]
  in
  (* IA tile at level 1 spans the level-0 loops only: full P, Q, R, S with
     the sliding-window halo ((8-1)*2+3 = 17 per axis), but C sits at L2 *)
  Alcotest.(check (float 0.)) "IA halo" (17. *. 17.)
    (Mapping.tile_words arch m 1 Dims.IA);
  Alcotest.(check (float 0.)) "W tile" (3. *. 3. *. 4. *. 4.)
    (Mapping.tile_words arch m 3 Dims.W);
  Alcotest.(check (float 0.)) "OA tile" (8. *. 8. *. 4.)
    (Mapping.tile_words arch m 3 Dims.OA)

let test_validate_ok () =
  Alcotest.(check (list string)) "no violations" []
    (List.map Mapping.violation_to_string (Mapping.validate arch small_mapping))

let test_validate_bad_factorization () =
  let m =
    Mapping.make small_layer
      [|
        { Mapping.temporal = [ lp Dims.P 2 ]; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = [ lp Dims.Q 4; lp Dims.C 8; lp Dims.K 8 ]; spatial = [] };
      |]
  in
  check_bool "invalid" false (Mapping.is_valid arch m);
  check_bool "reports P" true
    (List.exists
       (function Mapping.Bad_factorization (Dims.P, 2, 4) -> true | _ -> false)
       (Mapping.validate arch m))

let test_validate_spatial_overflow () =
  let m =
    Mapping.make small_layer
      [|
        { Mapping.temporal = [ lp Dims.P 4; lp Dims.Q 4; lp Dims.C 8 ]; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        (* 32 > 16 PEs *)
        { Mapping.temporal = []; spatial = [ lp Dims.K 8; lp Dims.C 1 ] };
        { Mapping.temporal = []; spatial = [ lp Dims.K 1 ] };
        { Mapping.temporal = []; spatial = [] };
      |]
  in
  ignore m;
  let m2 =
    Mapping.make small_layer
      [|
        { Mapping.temporal = [ lp Dims.P 4; lp Dims.Q 4 ]; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [ lp Dims.K 8; lp Dims.C 8 ] };
        { Mapping.temporal = []; spatial = [] };
        { Mapping.temporal = []; spatial = [] };
      |]
  in
  check_bool "spatial overflow detected" true
    (List.exists
       (function Mapping.Spatial_overflow (3, 64, 16) -> true | _ -> false)
       (Mapping.validate arch m2))

let test_validate_buffer_overflow () =
  (* put the whole layer below the register level's capacity scope: a big C
     tile below WBuf won't fit the weight buffer for a fat layer *)
  let l = Layer.create ~name:"fat" ~r:3 ~s:3 ~p:1 ~q:1 ~c:256 ~k:256 ~n:1 () in
  let m =
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
  check_bool "buffer overflow detected" true
    (List.exists
       (function Mapping.Buffer_overflow (_, Dims.W, _, _) -> true | _ -> false)
       (Mapping.validate arch m))

let test_loop_nest_rendering () =
  let s = Mapping.to_loop_nest arch small_mapping in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "spatial_for" true (contains "spatial_for K in [0:8)");
  check_bool "temporal for" true (contains "for P in [0:4)");
  check_bool "level names" true (contains "GlobalBuf")

let test_fingerprint () =
  check_bool "same mapping same print" true
    (Mapping.fingerprint small_mapping = Mapping.fingerprint small_mapping);
  let other =
    Mapping.make small_layer
      (Array.map
         (fun lm -> { lm with Mapping.temporal = List.rev lm.Mapping.temporal })
         small_mapping.Mapping.levels)
  in
  check_bool "order changes print" true
    (Mapping.fingerprint small_mapping <> Mapping.fingerprint other)

let layer_gen =
  QCheck.Gen.(
    map
      (fun (r, (p, (c, k))) -> Layer.create ~r ~s:r ~p ~q:p ~c ~k ~n:1 ())
      (pair (int_range 1 3) (pair (int_range 1 28) (pair (int_range 1 128) (int_range 1 128)))))

let prop_raw_sampler_factorizes =
  QCheck.Test.make ~name:"raw samples factorise every dim correctly" ~count:60
    (QCheck.make layer_gen)
    (fun layer ->
      let rng = Prim.Rng.create 11 in
      let m = Sampler.raw rng arch layer in
      List.for_all
        (fun d ->
          Mapping.dim_product m ~upto:(Spec.level_count arch) d = Layer.padded_bound layer d)
        Dims.all_dims)

let prop_valid_sampler_validates =
  QCheck.Test.make ~name:"constructive sampler returns valid mappings" ~count:40
    (QCheck.make layer_gen)
    (fun layer ->
      let rng = Prim.Rng.create 13 in
      match Sampler.valid rng arch layer with
      | Some m -> Mapping.is_valid arch m
      | None -> true)

(* [sampler.valid.exhausted] counts every [None] from the constructive
   sampler — a fault at [sampler.valid] or running out of attempts — and
   nothing else *)
let test_valid_exhaustion_counted () =
  let module M = Telemetry.Metrics in
  Telemetry.Sink.set Telemetry.Sink.Memory;
  Fun.protect
    ~finally:(fun () -> Telemetry.Sink.set Telemetry.Sink.Null)
    (fun () ->
      let exhausted () = M.counter_value (M.snapshot ()) "sampler.valid.exhausted" in
      let before = exhausted () in
      check_bool "samples" true (Sampler.valid (Prim.Rng.create 1) arch small_layer <> None);
      check_int "a success is not counted" before (exhausted ());
      Robust.Fault.with_faults ~rate:1. ~only:[ "sampler.valid" ] 3 (fun () ->
          check_bool "fault forces exhaustion" true
            (Sampler.valid (Prim.Rng.create 1) arch small_layer = None));
      check_int "the faulted call is counted" (before + 1) (exhausted ());
      check_bool "no attempts left" true
        (Sampler.valid ~max_attempts:0 (Prim.Rng.create 1) arch small_layer = None);
      check_int "running out of attempts is counted" (before + 2) (exhausted ()))

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "mapping",
    [
      Alcotest.test_case "dim_product" `Quick test_dim_product;
      Alcotest.test_case "products" `Quick test_products;
      Alcotest.test_case "tile words halo" `Quick test_tile_words_halo;
      Alcotest.test_case "validate ok" `Quick test_validate_ok;
      Alcotest.test_case "bad factorization" `Quick test_validate_bad_factorization;
      Alcotest.test_case "spatial overflow" `Quick test_validate_spatial_overflow;
      Alcotest.test_case "buffer overflow" `Quick test_validate_buffer_overflow;
      Alcotest.test_case "loop nest rendering" `Quick test_loop_nest_rendering;
      Alcotest.test_case "fingerprint" `Quick test_fingerprint;
      qc prop_raw_sampler_factorizes;
      qc prop_valid_sampler_validates;
      Alcotest.test_case "valid sampler exhaustion counted" `Quick
        test_valid_exhaustion_counted;
    ] )
