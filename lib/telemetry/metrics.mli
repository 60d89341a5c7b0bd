(** Named counters, gauges, and fixed-bucket histograms on atomics.

    Instruments register metrics once at module-init time (find-or-create
    by name, mutex-protected) and record through lock-free atomic
    operations, so [Serve.Pool] domains can record concurrently without
    contention on anything but the cache line of the metric itself.
    Recording is a no-op while {!Sink.enabled} is false.

    Values accumulate monotonically until {!reset}; {!snapshot} is a
    consistent-enough read for reporting (each value is read atomically,
    the set is not a cross-metric transaction). *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find or register the counter named [name]. Safe from any domain;
    idempotent. *)

val gauge : string -> gauge

val histogram : ?buckets:float array -> string -> histogram
(** Find or register a histogram with the given ascending bucket upper
    bounds (default {!duration_buckets}); one implicit overflow bucket is
    appended. Buckets are fixed at first registration. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set_gauge : gauge -> float -> unit

val timer_start : unit -> int
(** Start of a timed stage: the clock in nanoseconds while telemetry is
    enabled, [0] otherwise — one atomic load, no clock read. *)

val timer_stop : counter -> int -> unit
(** [timer_stop c t0] adds the nanoseconds elapsed since [timer_start]
    returned [t0] to [c], and does nothing when [t0 = 0]: a stage timer is
    an aggregate counter, not a per-event span. *)

val observe : histogram -> float -> unit
(** Record one sample: bump the first bucket whose upper bound is >= the
    value (or the overflow bucket), the sample count, and the sum. *)

(** Common bucket layouts. *)

val duration_buckets : float array
(** Log-spaced seconds, 100us .. 30s. *)

val linear_buckets : lo:float -> step:float -> count:int -> float array
val exponential_buckets : lo:float -> ratio:float -> count:int -> float array

(** {2 Snapshot / reset} *)

type hist_snapshot = {
  bounds : float array;  (** upper bounds; the overflow bucket has bound [infinity] *)
  counts : int array;  (** same length as [bounds] *)
  count : int;
  sum : float;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

val snapshot : unit -> snapshot
(** Safe to take concurrently with recorders. Per-metric guarantees:
    counters and the histogram [count] are monotone across consecutive
    snapshots, and each histogram satisfies
    [Array.fold_left (+) 0 counts >= count] (the snapshot reads the
    count before the buckets, and [observe] writes them in the opposite
    order). The set of metrics is not a cross-metric transaction. *)

val reset : unit -> unit
(** Zero every registered metric. Registrations (names, bucket layouts)
    survive; only the recorded values are cleared. *)

val counter_value : snapshot -> string -> int
(** 0 when the counter was never registered. *)

val hist_quantile : hist_snapshot -> float -> float
(** [hist_quantile h q] with [q] in [0,1]: the upper bound of the bucket
    containing the [q]-th sample (an upper estimate; exact only up to
    bucket resolution). 0 on an empty histogram. *)

val report : unit -> string
(** ASCII tables (via [Prim.Texttab]) of all non-zero metrics. *)

val report_of : snapshot -> string
