type rows = {
  starts : int array;
  cols : int array;
  coeffs : float array;
  stale : bool array;  (* per row: a bound it reads changed since it was last swept *)
}

type result = { mutable feasible : bool; mutable tightened : int; mutable rounds : int }

let result () = { feasible = true; tightened = 0; rounds = 0 }

let tol = 1e-7

(* Row i's entries sit at [starts.(i), starts.(i + 1)), in descending
   column order (and, within a column, descending entry order). The order
   fixes every floating-point sum in [tighten]; test/presolve_ref.ml pins
   it. *)
let rows_of (p : Simplex.problem) =
  let n = p.Simplex.nrows in
  let starts = Array.make (n + 1) 0 in
  Array.iter
    (fun (ridx, _) -> Array.iter (fun r -> starts.(r + 1) <- starts.(r + 1) + 1) ridx)
    p.Simplex.cols;
  for i = 0 to n - 1 do
    starts.(i + 1) <- starts.(i + 1) + starts.(i)
  done;
  let nnz = starts.(n) in
  let cols = Array.make nnz 0 and coeffs = Array.make nnz 0. in
  let next = Array.sub starts 0 n in
  for j = p.Simplex.ncols - 1 downto 0 do
    let ridx, c = p.Simplex.cols.(j) in
    for k = Array.length ridx - 1 downto 0 do
      let r = ridx.(k) in
      cols.(next.(r)) <- j;
      coeffs.(next.(r)) <- c.(k);
      next.(r) <- next.(r) + 1
    done
  done;
  { starts; cols; coeffs; stale = Array.make n true }

(* A bound of column [j] changed: every row that reads it must be swept
   again. *)
let touch (p : Simplex.problem) rows j =
  let ridx, _ = p.Simplex.cols.(j) in
  for k = 0 to Array.length ridx - 1 do
    rows.stale.(ridx.(k)) <- true
  done

(* A row none of whose bounds changed since its last sweep is skipped: the
   sweep would redo the same operations on the same operands, pass the
   same checks and tighten nothing (it tightened nothing last time, or one
   of its bounds would have changed). So skipping it moves no bound, count
   or verdict. *)
let tighten ?(max_rounds = 4) ~integer (p : Simplex.problem) rows lb ub out =
  let rhs = p.Simplex.rhs and starts = rows.starts in
  let rcols = rows.cols and rcoeffs = rows.coeffs and stale = rows.stale in
  Array.fill stale 0 p.Simplex.nrows true;
  out.feasible <- true;
  out.tightened <- 0;
  out.rounds <- 0;
  let changed = ref true in
  while !changed && out.rounds < max_rounds && out.feasible do
    changed := false;
    out.rounds <- out.rounds + 1;
    for i = 0 to p.Simplex.nrows - 1 do
      if out.feasible && stale.(i) then begin
        stale.(i) <- false;
        let b = rhs.(i) in
        let lo = starts.(i) and hi = starts.(i + 1) - 1 in
        (* activity range of the row *)
        let minact = ref 0. and maxact = ref 0. in
        for e = lo to hi do
          let j = rcols.(e) and a = rcoeffs.(e) in
          if a > 0. then begin
            minact := !minact +. (a *. lb.(j));
            maxact := !maxact +. (a *. ub.(j))
          end
          else begin
            minact := !minact +. (a *. ub.(j));
            maxact := !maxact +. (a *. lb.(j))
          end
        done;
        if !minact > b +. tol || !maxact < b -. tol then out.feasible <- false
        else
          for e = lo to hi do
            let j = rcols.(e) and a = rcoeffs.(e) in
            (* residual activity without column j's extreme contribution *)
            let contrib_min = if a > 0. then a *. lb.(j) else a *. ub.(j) in
            let contrib_max = if a > 0. then a *. ub.(j) else a *. lb.(j) in
            let rest_min = !minact -. contrib_min in
            let rest_max = !maxact -. contrib_max in
            (* a * x_j = b - rest, rest in [rest_min, rest_max] *)
            let x_hi = (b -. rest_min) /. a and x_lo = (b -. rest_max) /. a in
            let new_lo = Float.min x_lo x_hi and new_hi = Float.max x_lo x_hi in
            let new_lo = if integer.(j) then Float.round (ceil (new_lo -. tol)) else new_lo in
            let new_hi = if integer.(j) then Float.round (floor (new_hi +. tol)) else new_hi in
            if Float.is_nan new_lo || Float.is_nan new_hi then ()
            else begin
              if new_lo > lb.(j) +. tol && new_lo <> neg_infinity then begin
                (* keep activities consistent with the updated bound *)
                if a > 0. then minact := !minact +. (a *. (new_lo -. lb.(j)))
                else maxact := !maxact +. (a *. (new_lo -. lb.(j)));
                lb.(j) <- new_lo;
                touch p rows j;
                out.tightened <- out.tightened + 1;
                changed := true
              end;
              if new_hi < ub.(j) -. tol && new_hi <> infinity then begin
                if a > 0. then maxact := !maxact +. (a *. (new_hi -. ub.(j)))
                else minact := !minact +. (a *. (new_hi -. ub.(j)));
                ub.(j) <- new_hi;
                touch p rows j;
                out.tightened <- out.tightened + 1;
                changed := true
              end;
              if lb.(j) > ub.(j) +. tol then out.feasible <- false
            end
          done
      end
    done
  done
