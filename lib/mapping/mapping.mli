(** Concrete schedules: the object every scheduler produces and every
    evaluation platform consumes.

    A mapping assigns, for each memory level of an architecture, an ordered
    list of temporal loops (outermost first) and a set of spatial loops.
    The product of a dimension's bounds across all levels equals the
    layer's padded loop bound. *)

type loop = { dim : Dims.dim; bound : int }

type level_map = {
  temporal : loop list;  (** outermost first *)
  spatial : loop list;
}

type t = {
  layer : Layer.t;
  levels : level_map array;  (** one entry per architecture level, 0 = innermost *)
}

val make : Layer.t -> level_map array -> t

val dim_product : t -> upto:int -> Dims.dim -> int
(** Product of all (temporal and spatial) bounds of [dim] at levels
    strictly below [upto]. This is the tile extent of that dimension as
    seen by buffer level [upto] (Eq. 2's inner product). *)

val spatial_product : t -> int -> int
(** Product of all spatial bounds at a level. *)

val temporal_product : t -> int -> int

val tile_words : Spec.t -> t -> int -> Dims.tensor -> float
(** Exact tile footprint (elements) of a tensor held at a buffer level,
    including the input-activation sliding-window halo and stride. *)

type violation =
  | Bad_factorization of Dims.dim * int * int  (** dim, product, padded bound *)
  | Spatial_overflow of int * int * int  (** level, used, fanout *)
  | Buffer_overflow of int * Dims.tensor * float * float  (** level, tensor, words, cap *)

val validate : Spec.t -> t -> violation list
(** Empty list iff the mapping is valid on the architecture. Raises
    [Robust.Failure.Error (Invalid_input _)] when the mapping's level count
    does not match the architecture's. *)

val is_valid : Spec.t -> t -> bool

(** {2 Flat view}

    Every product the checks above and the analytical model read, from one
    walk over the loop lists. Integer products do not depend on the order
    of multiplication, so each equals the list-walking value. *)

type view = {
  nlev : int;
  cum : int array;  (** [(nlev+1) x 7]: [cum.(7*i + dim_index d) = dim_product ~upto:i d] *)
  sprod : int array;  (** per level: {!spatial_product} *)
  tdim : int array;
      (** every temporal loop, outermost first (level [nlev-1]'s in list
          order, then [nlev-2]'s, ...): dim index ... *)
  tbound : int array;  (** ... and bound *)
  tend : int array;  (** [nlev+1]: the loops at levels [>= i] are [0 .. tend.(i)-1] *)
}

val view : t -> view

val tile_of_cum : stride:int -> int array -> int -> Dims.tensor -> float
(** [tile_of_cum ~stride cum o v]: {!tile_words} over the dim products
    [cum.(o) .. cum.(o+6)]. *)

val capacities : Spec.t -> float array
(** [3 * level + tensor index]: the capacity {!validate} checks, [infinity]
    for DRAM and bypassed tensors. *)

val iter_overflows :
  Spec.t -> float array -> stride:int -> view -> (violation -> unit) -> unit
(** {!validate}'s [Spatial_overflow] and [Buffer_overflow] checks, in its
    order. The constructive sampler runs them on a view of its partial
    mapping that it updates in place. *)

val violation_to_string : violation -> string

val total_temporal : t -> int
(** Product of every temporal bound across all levels: the per-MAC compute
    cycle count under a perfectly-utilised pipeline. *)

val pe_count_used : Spec.t -> t -> int
(** Spatial product at the NoC level (PEs actually occupied). *)

val to_loop_nest : Spec.t -> t -> string
(** Listing-1-style rendering of the schedule. *)

val fingerprint : t -> string
(** Canonical string for deduplication in search-based mappers. *)
