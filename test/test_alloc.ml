(* Allocation regression tests for the branch-and-bound node path: the LU
   kernels and bound propagation allocate nothing, and a warm simplex
   solve allocates only the arrays and records of its result. Measured as
   [Gc.minor_words] deltas over 1,000 calls, on the two-stage node LP
   (about 15 rows) and the joint LP (364 rows) of the same layer. Also:
   the reused per-domain solve state under two threads of one domain. *)

open Milp

let calls = 1000

(* Minor-heap words allocated per call of [f], over [calls] calls. *)
let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let layer = Zoo.find "3_14_256_256_1"

let relaxed ~joint =
  let f = Cosa_formulation.build ~joint_permutation:joint Spec.baseline layer in
  (f, Bb.relax f.Cosa_formulation.lp)

let two_stage = lazy (relaxed ~joint:false)
let joint = lazy (relaxed ~joint:true)

(* The bench's eta-engine fixture: a factorized all-logical basis, the
   densest structural column and a sparse cost vector. *)
let lu_fixture (p : Simplex.problem) =
  let m = p.Simplex.nrows and n = p.Simplex.ncols in
  let cols = Array.make (n + m) ([||], [||]) in
  Array.blit p.Simplex.cols 0 cols 0 n;
  for i = 0 to m - 1 do
    cols.(n + i) <- ([| i |], [| 1. |])
  done;
  let lu = Lu.create m in
  Lu.refactor lu ~scratch:(Array.make_matrix m m 0.) ~cols
    ~basis:(Array.init m (fun i -> n + i)) ~pivot_tol:1e-9;
  let densest = ref 0 in
  for j = 1 to n - 1 do
    if Array.length (fst cols.(j)) > Array.length (fst cols.(!densest)) then densest := j
  done;
  (lu, cols.(!densest), Array.init m (fun i -> if i mod 3 = 0 then 1. else 0.))

let test_lu_kernels fixture () =
  let _, p = Lazy.force fixture in
  let m = p.Simplex.nrows in
  let lu, col, cost = lu_fixture p in
  let alpha = Array.make m 0. and y = Array.make m 0. in
  Alcotest.(check (float 0.))
    (Printf.sprintf "ftran words per call (m=%d)" m)
    0.
    (words_per_call (fun () -> Lu.ftran lu col alpha));
  Alcotest.(check (float 0.))
    (Printf.sprintf "btran words per call (m=%d)" m)
    0.
    (words_per_call (fun () -> Lu.btran lu cost y))

(* Propagation from the root bounds with the upper bound of every other
   integer column halved: real tightening work on every call. *)
let test_tighten fixture () =
  let f, p = Lazy.force fixture in
  let lp = f.Cosa_formulation.lp in
  let n = p.Simplex.ncols in
  let integer = Array.make n false in
  for j = 0 to Lp.num_vars lp - 1 do
    integer.(j) <- Lp.is_integer lp (Lp.var_of_index lp j)
  done;
  let lb0 = Array.copy p.Simplex.lb and ub0 = Array.copy p.Simplex.ub in
  Array.iteri
    (fun j is_int -> if is_int && j mod 2 = 0 then ub0.(j) <- Float.round (ub0.(j) /. 2.))
    integer;
  let rows = Presolve.rows_of p in
  let lb = Array.make n 0. and ub = Array.make n 0. in
  let out = Presolve.result () in
  let run () =
    Array.blit lb0 0 lb 0 n;
    Array.blit ub0 0 ub 0 n;
    Presolve.tighten ~integer p rows lb ub out
  in
  run ();
  Alcotest.(check bool) "the fixture propagates" true (out.Presolve.tightened > 0);
  Alcotest.(check (float 0.))
    (Printf.sprintf "tighten words per call (m=%d)" p.Simplex.nrows)
    0. (words_per_call run)

(* A warm child solve from its parent's basis and factor, repeated: what
   it may allocate is its result — the primal vector, the basis (two
   arrays), and a fixed allowance for the result, basis and option
   records, the boxed objective and the telemetry span's closure. The
   factor's inverse is not in the bound: the child's factor is the
   parent's or a cache hit, never a fresh snapshot. *)
let test_warm_solve () =
  let _, p = Lazy.force two_stage in
  let m = p.Simplex.nrows and n = p.Simplex.ncols in
  let root =
    match Simplex.solve_r p with
    | Ok r when r.Simplex.status = Simplex.Optimal -> r
    | _ -> Alcotest.fail "root LP should solve"
  in
  let frac = ref (-1) in
  Array.iteri
    (fun j v -> if !frac < 0 && Float.abs (v -. Float.round v) > 1e-6 then frac := j)
    root.Simplex.x;
  let child =
    if !frac < 0 then p
    else begin
      let ub = Array.copy p.Simplex.ub in
      ub.(!frac) <- floor root.Simplex.x.(!frac);
      { p with Simplex.ub }
    end
  in
  let warm = Option.get root.Simplex.basis in
  let warm_factor = Option.get root.Simplex.factor in
  let solve () =
    match Simplex.solve_r ~warm ~warm_factor child with
    | Ok r -> assert r.Simplex.warm
    | Error _ -> Alcotest.fail "warm child solve failed"
  in
  let bound = float_of_int ((n + 1) + (m + 1) + (n + m + 1) + 48) in
  let words = words_per_call solve in
  if words > bound then
    Alcotest.failf "warm solve allocates %.0f words per call, bound %.0f" words bound

(* The per-domain solve state is taken by one solve at a time: two
   threads of one domain solving the same-sized LP at once (the runtime
   switches threads mid-solve) must each get the sequential answer. *)
let test_threads_share_domain () =
  let _, p = Lazy.force joint in
  let bits (r : Simplex.result) =
    (r.Simplex.status, Int64.bits_of_float r.Simplex.obj, Array.map Int64.bits_of_float r.Simplex.x)
  in
  let expect = bits (Simplex.solve p) in
  let got = Array.make 2 None in
  let workers =
    List.init 2 (fun i -> Thread.create (fun () -> got.(i) <- Some (bits (Simplex.solve p))) ())
  in
  List.iter Thread.join workers;
  Array.iter
    (fun r -> Alcotest.(check bool) "thread result is the sequential one" true (r = Some expect))
    got

let suite =
  ( "alloc",
    [
      Alcotest.test_case "lu kernels, two-stage LP" `Quick (test_lu_kernels two_stage);
      Alcotest.test_case "lu kernels, joint LP" `Quick (test_lu_kernels joint);
      Alcotest.test_case "tighten, two-stage LP" `Quick (test_tighten two_stage);
      Alcotest.test_case "tighten, joint LP" `Quick (test_tighten joint);
      Alcotest.test_case "warm solve allocates its result only" `Quick test_warm_solve;
      Alcotest.test_case "threads of one domain" `Quick test_threads_share_domain;
    ] )
