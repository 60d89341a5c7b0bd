(* Unit and property tests for the prim library. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Factorize --- *)

let test_is_prime () =
  List.iter
    (fun (n, expect) -> check_bool (Printf.sprintf "is_prime %d" n) expect (Prim.Factorize.is_prime n))
    [ (-3, false); (0, false); (1, false); (2, true); (3, true); (4, false); (17, true);
      (25, false); (97, true); (561, false); (7919, true) ]

let test_prime_factors () =
  Alcotest.(check (list int)) "12" [ 2; 2; 3 ] (Prim.Factorize.prime_factors 12);
  Alcotest.(check (list int)) "1" [] (Prim.Factorize.prime_factors 1);
  Alcotest.(check (list int)) "97" [ 97 ] (Prim.Factorize.prime_factors 97);
  Alcotest.(check (list int)) "1024" (List.init 10 (fun _ -> 2))
    (Prim.Factorize.prime_factors 1024);
  Alcotest.check_raises "0 rejected" (Invalid_argument "Factorize.prime_factors: n < 1")
    (fun () -> ignore (Prim.Factorize.prime_factors 0))

let test_grouped_factors () =
  Alcotest.(check (list (pair int int))) "360" [ (2, 3); (3, 2); (5, 1) ]
    (Prim.Factorize.grouped_factors 360)

let test_pad () =
  check_int "smooth stays" 56 (Prim.Factorize.pad_to_factorable 56);
  check_int "1000 smooth" 1000 (Prim.Factorize.pad_to_factorable 1000);
  (* 11 is not 7-smooth; next smooth number is 12 *)
  check_int "11 -> 12" 12 (Prim.Factorize.pad_to_factorable 11);
  check_int "13 -> 14" 14 (Prim.Factorize.pad_to_factorable 13);
  check_int "max_prime=2" 16 (Prim.Factorize.pad_to_factorable ~max_prime:2 9)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Prim.Factorize.divisors 12);
  Alcotest.(check (list int)) "49" [ 1; 7; 49 ] (Prim.Factorize.divisors 49);
  Alcotest.(check (list int)) "1" [ 1 ] (Prim.Factorize.divisors 1)

let prop_factor_product =
  QCheck.Test.make ~name:"prime_factors multiply back" ~count:500
    QCheck.(int_range 1 100_000)
    (fun n -> Prim.Factorize.product (Prim.Factorize.prime_factors n) = n)

let prop_factors_prime =
  QCheck.Test.make ~name:"prime_factors are prime" ~count:300
    QCheck.(int_range 2 50_000)
    (fun n -> List.for_all Prim.Factorize.is_prime (Prim.Factorize.prime_factors n))

let prop_pad_smooth =
  QCheck.Test.make ~name:"pad_to_factorable is 7-smooth and >= n" ~count:300
    QCheck.(int_range 1 20_000)
    (fun n ->
      let m = Prim.Factorize.pad_to_factorable n in
      m >= n && List.for_all (fun p -> p <= 7) (Prim.Factorize.prime_factors m))

(* the allocation-free smoothness test against the prime factorisation *)
let prop_pad_least_smooth =
  QCheck.Test.make ~name:"pad_to_factorable is the least smooth m >= n" ~count:300
    QCheck.(pair (int_range 1 20_000) (oneofl [ 2; 3; 5; 7; 11 ]))
    (fun (n, max_prime) ->
      let smooth m = List.for_all (fun p -> p <= max_prime) (Prim.Factorize.prime_factors m) in
      let rec least m = if smooth m then m else least (m + 1) in
      Prim.Factorize.pad_to_factorable ~max_prime n = least n)

let prop_divisors_divide =
  QCheck.Test.make ~name:"divisors divide n" ~count:200
    QCheck.(int_range 1 10_000)
    (fun n -> List.for_all (fun d -> n mod d = 0) (Prim.Factorize.divisors n))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Prim.Rng.create 42 and b = Prim.Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prim.Rng.int a 1_000_000) (Prim.Rng.int b 1_000_000)
  done

let test_rng_bounds () =
  let r = Prim.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Prim.Rng.int r 13 in
    check_bool "in range" true (v >= 0 && v < 13)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0") (fun () ->
      ignore (Prim.Rng.int r 0))

let test_rng_shuffle_permutes () =
  let r = Prim.Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Prim.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let r = Prim.Rng.create 1 in
  let s = Prim.Rng.split r in
  let x = Prim.Rng.int r 1000 and y = Prim.Rng.int s 1000 in
  (* streams should not be identical step-by-step *)
  let differs = ref (x <> y) in
  for _ = 1 to 20 do
    if Prim.Rng.int r 1000 <> Prim.Rng.int s 1000 then differs := true
  done;
  check_bool "split diverges" true !differs

(* SplitMix64 known answer: the finalizer of the golden gamma is the first
   output of the seed-0 generator. *)
let test_rng_mix64_known_answer () =
  Alcotest.(check int64) "mix64 golden" 0xE220A8397B1DCDAFL
    (Prim.Rng.mix64 0x9E3779B97F4A7C15L);
  Alcotest.(check int64) "first int64 of seed 0" 0xE220A8397B1DCDAFL
    (Prim.Rng.int64 (Prim.Rng.create 0))

let test_rng_float_bounds () =
  let r = Prim.Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Prim.Rng.float r 2.5 in
    check_bool "float in range" true (v >= 0. && v < 2.5)
  done

(* --- Stats --- *)

let test_stats_basic () =
  check_float "mean" 2. (Prim.Stats.mean [ 1.; 2.; 3. ]);
  check_float "geomean" 2. (Prim.Stats.geomean [ 1.; 2.; 4. ]);
  check_float "median odd" 3. (Prim.Stats.median [ 5.; 1.; 3. ]);
  check_float "median even" 2.5 (Prim.Stats.median [ 1.; 2.; 3.; 4. ]);
  check_float "p0" 1. (Prim.Stats.percentile 0. [ 1.; 2.; 3. ]);
  check_float "p100" 3. (Prim.Stats.percentile 100. [ 1.; 2.; 3. ]);
  check_float "min" 1. (Prim.Stats.minimum [ 3.; 1.; 2. ]);
  check_float "max" 3. (Prim.Stats.maximum [ 3.; 1.; 2. ]);
  check_float "stddev" 0. (Prim.Stats.stddev [ 4.; 4.; 4. ])

let test_stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Prim.Stats.mean []));
  Alcotest.check_raises "geomean nonpositive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Prim.Stats.geomean [ 1.; 0. ]))

let test_histogram () =
  let h = Prim.Stats.histogram ~bins:4 [ 0.; 1.; 2.; 3.; 4. ] in
  check_int "bins" 4 (Array.length h.Prim.Stats.counts);
  check_int "total count" 5 (Array.fold_left ( + ) 0 h.Prim.Stats.counts);
  let rendered = Prim.Stats.render_histogram h in
  check_bool "renders rows" true (String.length rendered > 0)

let prop_geomean_bounded =
  QCheck.Test.make ~name:"geomean between min and max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.001 1000.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let g = Prim.Stats.geomean xs in
      g >= Prim.Stats.minimum xs -. 1e-9 && g <= Prim.Stats.maximum xs +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 2 20) (float_range 0. 100.)) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (xs <> []);
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Prim.Stats.percentile lo xs <= Prim.Stats.percentile hi xs +. 1e-9)

let test_quantiles () =
  Alcotest.(check (list (float 1e-9)))
    "p50/p95 pair" [ 2.5; 3.85 ]
    (Prim.Stats.quantiles [ 50.; 95. ] [ 4.; 2.; 1.; 3. ]);
  Alcotest.(check (list (float 1e-9))) "empty request" [] (Prim.Stats.quantiles [] [ 1. ]);
  Alcotest.check_raises "empty data" (Invalid_argument "Stats.quantiles: empty list")
    (fun () -> ignore (Prim.Stats.quantiles [ 50. ] []));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.quantiles: p out of range") (fun () ->
      ignore (Prim.Stats.quantiles [ 101. ] [ 1. ]))

let prop_quantiles_agree_percentile =
  QCheck.Test.make ~name:"quantiles [p] xs = [percentile p xs]" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (float_range (-50.) 50.)) (float_range 0. 100.))
    (fun (xs, p) ->
      QCheck.assume (xs <> []);
      Prim.Stats.quantiles [ p ] xs = [ Prim.Stats.percentile p xs ])

(* --- Bigint / Ratio (exact arithmetic backing the certifier) --- *)

module B = Prim.Bigint
module R = Prim.Ratio

let test_bigint_basics () =
  check_int "of_int/to_int" 12345 (Option.get (B.to_int_opt (B.of_int 12345)));
  check_int "neg" (-7) (Option.get (B.to_int_opt (B.neg (B.of_int 7))));
  Alcotest.(check string) "to_string" "-12345" (B.to_string (B.of_int (-12345)));
  check_int "min_int roundtrips" min_int (Option.get (B.to_int_opt (B.of_int min_int)));
  (* 2^200 has no int representation but survives arithmetic *)
  let big = B.shift_left B.one 200 in
  check_bool "2^200 too big for int" true (B.to_int_opt big = None);
  let q, r = B.divmod big (B.of_int 1_000_003) in
  check_bool "divmod reconstructs" true
    B.(equal big (add (mul q (B.of_int 1_000_003)) r));
  check_int "gcd" 6 (Option.get (B.to_int_opt (B.gcd (B.of_int 54) (B.of_int (-24)))))

let test_ratio_basics () =
  let half = R.of_ints 1 2 and third = R.of_ints 1 3 in
  Alcotest.(check string) "1/2 + 1/3" "5/6" (R.to_string (R.add half third));
  Alcotest.(check string) "normalized" "-2/3" (R.to_string (R.of_ints 4 (-6)));
  check_bool "0.1 is not 1/10 exactly" false (R.equal (R.of_float 0.1) (R.of_ints 1 10));
  check_bool "0.5 is exactly 1/2" true (R.equal (R.of_float 0.5) half);
  check_bool "is_integer" true (R.is_integer (R.of_int 42));
  check_float "to_float" 0.75 (R.to_float (R.of_ints 3 4))

let ratio_gen =
  QCheck.Gen.(
    map (fun (n, d) -> R.of_ints n d) (pair (int_range (-1000) 1000) (int_range 1 1000)))

let ratio_arb = QCheck.make ~print:R.to_string ratio_gen

let prop_ratio_ring =
  QCheck.Test.make ~name:"ratio ring axioms (exact)" ~count:300
    (QCheck.triple ratio_arb ratio_arb ratio_arb)
    (fun (a, b, c) ->
      R.equal (R.add a b) (R.add b a)
      && R.equal (R.mul a b) (R.mul b a)
      && R.equal (R.add (R.add a b) c) (R.add a (R.add b c))
      && R.equal (R.mul (R.mul a b) c) (R.mul a (R.mul b c))
      && R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c))
      && R.equal (R.add a (R.of_int 0)) a
      && R.equal (R.mul a (R.of_int 1)) a
      && R.equal (R.sub a a) (R.of_int 0))

let prop_ratio_normalized =
  QCheck.Test.make ~name:"ratio stays normalized" ~count:300
    (QCheck.pair ratio_arb ratio_arb)
    (fun (a, b) ->
      List.for_all
        (fun r ->
          B.sign (R.den r) = 1
          && B.equal (B.gcd (R.num r) (R.den r)) B.one)
        [ R.add a b; R.sub a b; R.mul a b ])

let prop_ratio_compare_float =
  (* on small integer-pair rationals the float images are exact, so exact
     comparison must agree with the float reference *)
  QCheck.Test.make ~name:"ratio compare agrees with float reference" ~count:300
    QCheck.(pair (pair (int_range (-100) 100) (int_range 1 50))
              (pair (int_range (-100) 100) (int_range 1 50)))
    (fun ((n1, d1), (n2, d2)) ->
      let a = R.of_ints n1 d1 and b = R.of_ints n2 d2 in
      let fa = float_of_int n1 /. float_of_int d1
      and fb = float_of_int n2 /. float_of_int d2 in
      if Float.abs (fa -. fb) > 1e-9 then compare fa fb = R.compare a b else true)

let prop_ratio_of_float_exact =
  (* of_float is the exact dyadic decomposition: converting back must be
     the identity, and exact sums of dyadics replay float sums *)
  QCheck.Test.make ~name:"of_float exact roundtrip" ~count:300
    QCheck.(float_range (-1e6) 1e6)
    (fun f -> Float.equal (R.to_float (R.of_float f)) f)

(* --- Texttab --- *)

let test_texttab () =
  let t = Prim.Texttab.create [ "a"; "bb" ] in
  Prim.Texttab.add_row t [ "x"; "y"; "z" ];
  Prim.Texttab.add_row t [ "long-cell" ];
  let s = Prim.Texttab.render t in
  check_bool "has header" true (String.length s > 0);
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "x present" true (contains "x");
  check_bool "long-cell present" true (contains "long-cell");
  Alcotest.(check string) "cell_fx" "2.50x" (Prim.Texttab.cell_fx 2.5);
  Alcotest.(check string) "cell_f int-like" "42" (Prim.Texttab.cell_f 42.)

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "prim",
    [
      Alcotest.test_case "is_prime" `Quick test_is_prime;
      Alcotest.test_case "prime_factors" `Quick test_prime_factors;
      Alcotest.test_case "grouped_factors" `Quick test_grouped_factors;
      Alcotest.test_case "pad_to_factorable" `Quick test_pad;
      Alcotest.test_case "divisors" `Quick test_divisors;
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
      Alcotest.test_case "rng split" `Quick test_rng_split_independent;
      Alcotest.test_case "rng float" `Quick test_rng_float_bounds;
      Alcotest.test_case "rng mix64 known answer" `Quick test_rng_mix64_known_answer;
      Alcotest.test_case "stats basics" `Quick test_stats_basic;
      Alcotest.test_case "stats errors" `Quick test_stats_errors;
      Alcotest.test_case "quantiles" `Quick test_quantiles;
      Alcotest.test_case "histogram" `Quick test_histogram;
      Alcotest.test_case "bigint basics" `Quick test_bigint_basics;
      Alcotest.test_case "ratio basics" `Quick test_ratio_basics;
      Alcotest.test_case "texttab" `Quick test_texttab;
      qc prop_factor_product;
      qc prop_factors_prime;
      qc prop_pad_smooth;
      qc prop_pad_least_smooth;
      qc prop_divisors_divide;
      qc prop_geomean_bounded;
      qc prop_percentile_monotone;
      qc prop_quantiles_agree_percentile;
      qc prop_ratio_ring;
      qc prop_ratio_normalized;
      qc prop_ratio_compare_float;
      qc prop_ratio_of_float_exact;
    ] )
