(** Random schedule generation.

    Two samplers with different purposes:
    - {!raw} draws uniformly from the full (mostly invalid) configuration
      space — this is what the paper's Random-search baseline samples, where
      only ~0.03% of 20K draws are valid;
    - {!valid} constructs a random {e valid} mapping by incremental
      placement with rejection-and-repair, used to enumerate the valid-
      schedule population for Fig. 1. *)

val raw : Prim.Rng.t -> Spec.t -> Layer.t -> Mapping.t
(** A uniformly random assignment of every prime factor to a (level,
    spatial/temporal) slot with random per-level loop orders. Usually
    violates buffer or fanout constraints; callers must validate. *)

val valid : ?max_attempts:int -> Prim.Rng.t -> Spec.t -> Layer.t -> Mapping.t option
(** A random valid mapping, or [None] if construction failed
    [max_attempts] (default 50) times. Each [None] (including one forced by
    the [sampler.valid] fault point) counts in the
    [sampler.valid.exhausted] counter. *)
