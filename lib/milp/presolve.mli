(** Bound tightening by interval propagation over equality rows.

    Given a problem in equality standard form and working copies of the
    variable bounds, repeatedly derives implied bounds for every variable
    from each row's residual activity range, rounding integer variables'
    bounds inward. Used by {!Bb} at every node: after a branch fixes part
    of a conservation row (e.g. CoSA's Eq. 3 equalities), propagation
    fixes or tightens the siblings, shrinking the LP and often proving
    infeasibility without a simplex call.

    The row-major view is a CSR matrix built once per search, and
    {!tighten} writes its outcome into a caller-owned {!result}: a call
    allocates nothing, so it can run at every branch-and-bound node. A
    sweep skips the rows none of whose bounds changed since their last
    sweep, which would redo the same arithmetic and tighten nothing. *)

type rows
(** Compressed-sparse-row view of the constraint matrix: row starts, an
    [int array] of columns and a [float array] of coefficients, with each
    row's entries in descending column order (which fixes the summation
    order of the activity ranges), plus one stale flag per row. The flags
    are scratch of {!tighten}: a view serves one search at a time. *)

type result = {
  mutable feasible : bool;  (** false if some bound interval became empty *)
  mutable tightened : int;  (** number of individual bound changes applied *)
  mutable rounds : int;  (** propagation sweeps executed *)
}

val result : unit -> result
(** A fresh outcome record, reusable across calls. *)

val rows_of : Simplex.problem -> rows
(** Row-major view of the constraint matrix (built once, reusable across
    nodes of the same problem). *)

val tighten :
  ?max_rounds:int ->
  integer:bool array ->
  Simplex.problem ->
  rows ->
  float array ->
  float array ->
  result ->
  unit
(** [tighten ~integer p rows lb ub out] mutates [lb]/[ub] in place and
    overwrites [out] with the outcome. [integer.(j)] marks columns whose
    bounds may be rounded inward (length [p.ncols]). [max_rounds] defaults
    to 4. *)
