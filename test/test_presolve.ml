(* Tests for interval-propagation bound tightening. *)

open Milp

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let problem_of_model m = Bb.relax m

(* [Presolve.tighten] into a fresh outcome record *)
let tighten ?integer p rows lb ub =
  let integer = Option.value integer ~default:(Array.make p.Simplex.ncols false) in
  let r = Presolve.result () in
  Presolve.tighten ~integer p rows lb ub r;
  r

let test_equality_fixes_sibling () =
  (* x + y = 5 with x fixed to 2 must force y = 3 *)
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~lb:2. ~ub:2. "x" in
  let y = Lp.add_var m ~integer:true ~ub:10. "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Eq 5.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  let r = tighten ~integer:[| true; true |] p rows lb ub in
  check_bool "feasible" true r.Presolve.feasible;
  check_float "y lower" 3. lb.(1);
  check_float "y upper" 3. ub.(1);
  check_bool "tightened something" true (r.Presolve.tightened > 0)

let test_detects_infeasible () =
  (* x + y = 10 with x,y <= 4 is impossible *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:4. "x" and y = Lp.add_var m ~ub:4. "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Eq 10.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  let r = tighten p rows lb ub in
  check_bool "infeasible detected" false r.Presolve.feasible

let test_le_slack_handling () =
  (* 2x <= 6 (slacked) should tighten x <= 3 *)
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~ub:100. "x" in
  Lp.add_constr m [ (2., x) ] Lp.Le 6.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  let r = tighten ~integer:[| true; false |] p rows lb ub in
  check_bool "feasible" true r.Presolve.feasible;
  check_float "x upper" 3. ub.(0)

let test_integer_rounding () =
  (* 2x + s = 7, s in [0, inf): x <= 3.5, integer rounding gives x <= 3 *)
  let m = Lp.create () in
  let x = Lp.add_var m ~integer:true ~ub:100. "x" in
  Lp.add_constr m [ (2., x) ] Lp.Le 7.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  ignore (tighten ~integer:[| true; false |] p rows lb ub);
  check_float "x upper rounded" 3. ub.(0)

let test_no_change_when_loose () =
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:1. "x" and y = Lp.add_var m ~ub:1. "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 5.;
  let p = problem_of_model m in
  let rows = Presolve.rows_of p in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  let r = tighten p rows lb ub in
  check_bool "feasible" true r.Presolve.feasible;
  check_float "x unchanged" 1. ub.(0);
  check_float "y unchanged" 1. ub.(1)

let test_bb_agrees_with_and_without () =
  (* end-to-end consistency: the MILP optimum is presolve-invariant (checked
     against brute force values computed by hand) *)
  let m = Lp.create () in
  let a = Lp.add_var m ~integer:true ~ub:4. "a" in
  let b = Lp.add_var m ~integer:true ~ub:4. "b" in
  let c = Lp.add_var m ~integer:true ~ub:4. "c" in
  Lp.add_constr m [ (1., a); (1., b); (1., c) ] Lp.Eq 6.;
  Lp.add_constr m [ (2., a); (1., b) ] Lp.Le 7.;
  Lp.set_objective m `Maximize [ (3., a); (2., b); (1., c) ];
  let r = Bb.solve m in
  (* optimum: a=2,b=3,c=1 -> 13? check a=1,b=4? b<=4: 3+8+1=12; a=2,b=3,c=1: 6+6+1=13;
     a=3,b=1,c=2: 9+2+2=13 but 2a+b=7<=7 ok -> 13 *)
  check_float "objective" 13. r.Bb.obj

let test_resweeps_earlier_rows () =
  (* r0: x + y = 5 tightens nothing at first; r1: x - z = 3 then raises
     x's lower bound to 3, which must send the sweep back to r0: y <= 2 *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:5. "x" and y = Lp.add_var m ~ub:5. "y" in
  let z = Lp.add_var m ~ub:10. "z" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Eq 5.;
  Lp.add_constr m [ (1., x); (-1., z) ] Lp.Eq 3.;
  let p = problem_of_model m in
  let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
  let r = tighten p (Presolve.rows_of p) lb ub in
  check_bool "feasible" true r.Presolve.feasible;
  check_float "x lower" 3. lb.(0);
  check_float "y upper" 2. ub.(1)

let prop_tighten_preserves_integer_solutions =
  (* any integer point feasible before tightening stays within the
     tightened box *)
  QCheck.Test.make ~name:"tighten never cuts off feasible integer points" ~count:80
    QCheck.(pair (pair (int_range 0 4) (int_range 0 4)) (int_range 0 8))
    (fun ((xv, yv), rhs) ->
      let m = Lp.create () in
      let x = Lp.add_var m ~integer:true ~ub:4. "x" in
      let y = Lp.add_var m ~integer:true ~ub:4. "y" in
      Lp.add_constr m [ (1., x); (2., y) ] Lp.Le (float_of_int rhs);
      let p = problem_of_model m in
      let feasible_point = xv + (2 * yv) <= rhs in
      let rows = Presolve.rows_of p in
      let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
      let r = tighten ~integer:[| true; true; false |] p rows lb ub in
      if not feasible_point then true
      else
        r.Presolve.feasible
        && float_of_int xv >= lb.(0) -. 1e-9
        && float_of_int xv <= ub.(0) +. 1e-9
        && float_of_int yv >= lb.(1) -. 1e-9
        && float_of_int yv <= ub.(1) +. 1e-9)

(* The CSR kernel against the tuple-row reference it replaced
   ([Presolve_ref]), on random equality-form LPs with random integer marks
   and a random branch-like tightening of a few bounds: the same bounds
   bit for bit and the same outcome counts. *)
let equivalence_case_gen =
  let open QCheck.Gen in
  let half k = float_of_int k /. 2. in
  let* nrows = int_range 1 10 and* ncols = int_range 1 12 in
  let coeff = frequency [ (2, return 0.); (3, map half (int_range (-6) 6)) ] in
  let* dense = array_size (return (nrows * ncols)) coeff in
  let* rhs = array_size (return nrows) (map half (int_range (-20) 20)) in
  let finite_or inf lo hi =
    frequency [ (1, return inf); (4, map float_of_int (int_range lo hi)) ]
  in
  let* lb = array_size (return ncols) (finite_or neg_infinity (-3) 3) in
  let* width = array_size (return ncols) (finite_or infinity 0 6) in
  let* integer = array_size (return ncols) bool in
  let cut = triple (int_bound (ncols - 1)) bool (int_range (-2) 4) in
  let* cuts = list_size (int_range 0 3) cut in
  let* max_rounds = int_range 1 5 in
  return (nrows, ncols, dense, rhs, lb, width, integer, cuts, max_rounds)

let equivalence_problem (nrows, ncols, dense, rhs, lb, width, _, _, _) =
  let cols =
    Array.init ncols (fun j ->
        let a i = dense.((i * ncols) + j) in
        let rows = List.filter (fun i -> a i <> 0.) (List.init nrows Fun.id) in
        (Array.of_list rows, Array.of_list (List.map a rows)))
  in
  { Simplex.nrows; ncols; cols; cost = Array.make ncols 0.; rhs;
    lb = Array.copy lb; ub = Array.mapi (fun j w -> lb.(j) +. w) width }

let prop_csr_matches_reference =
  QCheck.Test.make ~name:"CSR tighten is bit-identical to the tuple-row reference" ~count:2000
    (QCheck.make equivalence_case_gen)
    (fun ((_, _, _, _, _, _, integer, cuts, max_rounds) as case) ->
      let p = equivalence_problem case in
      let lb = Array.copy p.Simplex.lb and ub = Array.copy p.Simplex.ub in
      List.iter
        (fun (j, upper, v) ->
          let v = float_of_int v in
          if upper then ub.(j) <- Float.min ub.(j) v else lb.(j) <- Float.max lb.(j) v)
        cuts;
      let lb' = Array.copy lb and ub' = Array.copy ub in
      let expect = Presolve_ref.tighten ~max_rounds ~integer p (Presolve_ref.rows_of p) lb ub in
      (* one view serves many calls, as in a search: a call on the uncut
         bounds comes first *)
      let rows = Presolve.rows_of p and got = Presolve.result () in
      Presolve.tighten ~max_rounds ~integer p rows (Array.copy p.Simplex.lb)
        (Array.copy p.Simplex.ub) got;
      Presolve.tighten ~max_rounds ~integer p rows lb' ub' got;
      let bits a = Array.map Int64.bits_of_float a in
      bits lb = bits lb' && bits ub = bits ub'
      && expect.Presolve_ref.feasible = got.Presolve.feasible
      && expect.Presolve_ref.tightened = got.Presolve.tightened
      && expect.Presolve_ref.rounds = got.Presolve.rounds)

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  ( "presolve",
    [
      Alcotest.test_case "equality fixes sibling" `Quick test_equality_fixes_sibling;
      Alcotest.test_case "detects infeasible" `Quick test_detects_infeasible;
      Alcotest.test_case "le slack" `Quick test_le_slack_handling;
      Alcotest.test_case "integer rounding" `Quick test_integer_rounding;
      Alcotest.test_case "loose rows untouched" `Quick test_no_change_when_loose;
      Alcotest.test_case "bb end-to-end" `Quick test_bb_agrees_with_and_without;
      Alcotest.test_case "bound change re-sweeps earlier rows" `Quick test_resweeps_earlier_rows;
      qc prop_tighten_preserves_integer_solutions;
      qc prop_csr_matches_reference;
    ] )
