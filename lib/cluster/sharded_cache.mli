(** {!Serve.Schedule_cache} sharded by fingerprint across N partitions,
    one lock per shard — thread-safe, so connection threads probe the
    cache directly instead of serializing through the solver thread.

    Placement is deterministic and content-addressed (high 32 bits of the
    fingerprint hash mod shard count): the same request always lands on
    the same shard, on every host. Persistence is per-shard into
    [dir/shard-NN] subdirectories with the usual crash-safe write
    discipline, and each shard recovers independently — a corrupted shard
    directory costs re-solves for that shard's keys only. Per-shard
    hit-rate windows are exported both as [cluster.shard.NN.hit_rate]
    gauges and through {!tier}'s per-fingerprint hit-rate hook, which is
    how admission learns per-shard rates. *)

type t

val create :
  ?dir:string -> ?tmp_sweep_age_s:float -> capacity:int -> shards:int -> unit -> t
(** Total [capacity] is split evenly (rounded up) across [shards].
    Raises [Robust.Failure.Error (Invalid_input _)] when [shards < 1] or
    [capacity < shards]. *)

val shard_count : t -> int

val shard_index : t -> Serve.Fingerprint.t -> int
(** Deterministic owner shard of a fingerprint. *)

val find :
  ?count_miss:bool ->
  t ->
  arch:Spec.t ->
  layer:Layer.t ->
  Serve.Fingerprint.t ->
  (Serve.Schedule_cache.entry * Serve.Schedule_cache.tier) option
(** Probe the owning shard under its lock. [count_miss:false] (default
    [true]) suppresses miss accounting in the shard's hit-rate window —
    for peek-style probes re-probed by an authoritative path. *)

val store : t -> Serve.Fingerprint.t -> Serve.Schedule_cache.entry -> unit

val persist : t -> int
(** Persist every shard (each under its own lock); total records written. *)

val stats : t -> Serve.Schedule_cache.stats
(** Aggregated across shards (a fresh record, not shared state). *)

val shard_stats : t -> int -> Serve.Schedule_cache.stats
(** Snapshot of one shard's counters. *)

val hit_rate : t -> float
val shard_hit_rate : t -> int -> float

val stats_json : t -> Telemetry.Json.t
(** Per-shard counters and hit rates as a JSON array ([shard], [hits],
    [disk_hits], [misses], [disk_rejects], [evictions], [stores],
    [hit_rate]) — the ["shards"] section the cluster CLI wiring injects
    into the daemon's Stats frame. Read-only: books no misses. *)

val tier : t -> Serve.Service.cache_tier
(** The service-facing view; safe to probe from any thread. Per-
    fingerprint hit-rate queries answer from the owning shard's window. *)
