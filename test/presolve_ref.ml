(* Reference copy of the tuple-row bound tightening that the CSR kernel in
   [Milp.Presolve] replaced, kept verbatim apart from this header and the
   [open Milp]. The property in [Test_presolve] pins the CSR code
   to it bit for bit: same bounds, same outcome counts. *)

open Milp

type result = { feasible : bool; tightened : int; rounds : int }

let tol = 1e-7

let rows_of (p : Simplex.problem) =
  let rows = Array.make p.Simplex.nrows [] in
  Array.iteri
    (fun j (ridx, coeffs) ->
      Array.iteri (fun k r -> rows.(r) <- (j, coeffs.(k)) :: rows.(r)) ridx)
    p.Simplex.cols;
  Array.map Array.of_list rows

let tighten ?(max_rounds = 4) ?integer (p : Simplex.problem) rows lb ub =
  let is_int j = match integer with Some a -> a.(j) | None -> false in
  let tightened = ref 0 in
  let feasible = ref true in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds && !feasible do
    changed := false;
    incr rounds;
    Array.iteri
      (fun i row ->
        if !feasible then begin
          let b = p.Simplex.rhs.(i) in
          (* activity range of the row *)
          let minact = ref 0. and maxact = ref 0. in
          Array.iter
            (fun (j, a) ->
              if a > 0. then begin
                minact := !minact +. (a *. lb.(j));
                maxact := !maxact +. (a *. ub.(j))
              end
              else begin
                minact := !minact +. (a *. ub.(j));
                maxact := !maxact +. (a *. lb.(j))
              end)
            row;
          if !minact > b +. tol || !maxact < b -. tol then feasible := false
          else
            Array.iter
              (fun (j, a) ->
                (* residual activity without column j's extreme contribution *)
                let contrib_min = if a > 0. then a *. lb.(j) else a *. ub.(j) in
                let contrib_max = if a > 0. then a *. ub.(j) else a *. lb.(j) in
                let rest_min = !minact -. contrib_min in
                let rest_max = !maxact -. contrib_max in
                (* a * x_j = b - rest, rest in [rest_min, rest_max] *)
                let x_hi = (b -. rest_min) /. a and x_lo = (b -. rest_max) /. a in
                let new_lo = Float.min x_lo x_hi and new_hi = Float.max x_lo x_hi in
                let new_lo = if is_int j then Float.round (ceil (new_lo -. tol)) else new_lo in
                let new_hi = if is_int j then Float.round (floor (new_hi +. tol)) else new_hi in
                if Float.is_nan new_lo || Float.is_nan new_hi then ()
                else begin
                  if new_lo > lb.(j) +. tol && new_lo <> neg_infinity then begin
                    (* keep activities consistent with the updated bound *)
                    if a > 0. then minact := !minact +. (a *. (new_lo -. lb.(j)))
                    else maxact := !maxact +. (a *. (new_lo -. lb.(j)));
                    lb.(j) <- new_lo;
                    incr tightened;
                    changed := true
                  end;
                  if new_hi < ub.(j) -. tol && new_hi <> infinity then begin
                    if a > 0. then maxact := !maxact +. (a *. (new_hi -. ub.(j)))
                    else minact := !minact +. (a *. (new_hi -. ub.(j)));
                    ub.(j) <- new_hi;
                    incr tightened;
                    changed := true
                  end;
                  if lb.(j) > ub.(j) +. tol then feasible := false
                end)
              row
        end)
      rows
  done;
  { feasible = !feasible; tightened = !tightened; rounds = !rounds }
