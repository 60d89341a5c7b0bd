(** Expositions of a [Metrics.snapshot].

    Pure functions of an immutable snapshot — safe to call while
    recorders are running, and deterministic for a given snapshot. *)

val prometheus : ?prefix:string -> Metrics.snapshot -> string
(** Prometheus text exposition (format 0.0.4). Metric names are mangled
    to the Prometheus charset ([.]/[-] become [_]) and prefixed
    ([cosa_] by default); histograms expose cumulative
    [_bucket{le="..."}] series plus [_sum] / [_count], counters and
    gauges get a [# TYPE] header each. *)

val metrics_json : Metrics.snapshot -> Json.t
(** The snapshot as one JSON object:
    [{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,p50,p95}}}].
    Histogram quantiles are bucket-upper-bound estimates
    (see [Metrics.hist_quantile]). *)

val mangle : string -> string
(** The name mangling used by {!prometheus}. *)
