(** Health-checked warm-peer tier: a static list of peer daemons probed
    on local cache misses.

    Peers are never trusted: every returned record is re-parsed, its
    provenance meta is matched against the local request fingerprint
    (weights and strategy must name the key it will be stored under),
    it is shape-checked against the requested layer, and re-certified
    in exact arithmetic ({!Certify.Mapping_cert}) before it is served
    or stored — a lying, corrupt, or differently-configured peer
    degrades to a counted miss ([cluster.peer_rejects_cert]), never a
    wrong serve or a poisoned cache entry.

    Health: {!tick} (driven from the daemon accept loop) probes each
    peer on a fixed cadence; [eject_after] consecutive failures eject
    it, and ejected peers are re-probed under exponential backoff and
    re-admitted on the first success. Probe traffic is [cache_only], so
    peers answer from their own tier and never cascade — probe cycles
    are impossible by construction. *)

type config = {
  probe_interval_s : float;  (** health-check cadence per healthy peer *)
  probe_timeout_s : float;  (** connect + exchange budget per probe *)
  probe_budget_s : float;  (** SLO budget carried by cache probes *)
  eject_after : int;  (** consecutive failures before ejection *)
  readmit_backoff_s : float;  (** initial re-admission backoff *)
  readmit_backoff_max_s : float;
}

val default_config :
  ?probe_interval_s:float ->
  ?probe_timeout_s:float ->
  ?probe_budget_s:float ->
  ?eject_after:int ->
  ?readmit_backoff_s:float ->
  ?readmit_backoff_max_s:float ->
  unit ->
  config
(** Defaults: 2s interval, 0.5s timeout, 1s budget, eject after 3,
    backoff 1s doubling to 30s. *)

type t

val create : ?config:config -> Daemon.Client.endpoint list -> t
(** All peers start healthy and are probed on the first {!tick}. *)

val tick : t -> unit
(** Probe every peer whose next-probe time has passed (network I/O
    happens outside the internal lock). Call from the daemon's
    [housekeeping] hook. *)

val probe :
  t ->
  arch:Spec.t ->
  layer:Layer.t ->
  Serve.Fingerprint.t ->
  Serve.Schedule_cache.entry option
(** Ask healthy peers, in list order, for this layer via a [cache_only]
    request; verify any answer before returning it. Matches the daemon's
    [remote_probe] signature. Transport failures feed the health state;
    typed rejections are honest misses. *)

val healthy_endpoints : t -> Daemon.Client.endpoint list

val stats_json : t -> Telemetry.Json.t
(** Per-peer health/backoff state as a JSON array
    ([endpoint], [healthy], [consec_fails], [backoff_s], [probes],
    [hits], [rejects]) — the ["peers"] section the cluster CLI wiring
    injects into the daemon's Stats frame. Read-only. *)

type stats = {
  peers : int;
  healthy : int;
  probes : int;
  hits : int;
  rejects_cert : int;
  ejections : int;
}

val stats : t -> stats
