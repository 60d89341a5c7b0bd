(** Deterministic SplitMix64 pseudo-random generator.

    Every stochastic component (random mapper, Timeloop-Hybrid baseline, NoC
    arbitration tie-breaking in tests) draws from an explicit [Rng.t] so runs
    are reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val copy : t -> t

val int64 : t -> int64
(** Next raw 64-bit output: {!mix64} of the state after adding the golden
    gamma [0x9E3779B97F4A7C15]. *)

val mix64 : int64 -> int64
(** The SplitMix64 output finalizer, a bijection on 64-bit values. Use it
    to hash a seed-free value (a clock, a pid, a counter) to well-spread
    bits without a generator. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] when
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val split : t -> t
(** Derive an independent generator (for per-"thread" seeding). *)
