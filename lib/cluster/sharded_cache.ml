(* The schedule cache, sharded by fingerprint across N partitions with a
   lock per shard.

   The single-box daemon confines its (not thread-safe) [Schedule_cache]
   to one solver thread, which makes the cache itself the serialization
   point once traffic is mostly hits. Sharding fixes both problems at
   once: each shard is an independent [Schedule_cache] behind its own
   mutex, so (1) any thread — in particular every connection thread — may
   probe concurrently, and (2) two probes for different shards never
   contend at all.

   Placement is content-addressed and deterministic: the first 8 hex
   characters of the request fingerprint's FNV-1a hash, mod the shard
   count. The same fingerprint always lands on the same shard, on every
   host, for the life of the deployment — which is what lets tests (and
   peers) predict placement, and lets per-shard hit-rate windows feed
   admission with the rate of the partition a request will actually hit.

   Persistence is per-shard and independent: each shard owns a
   [dir/shard-NN] subdirectory with the usual crash-safe write discipline
   (pid.seq.tmp + fsync + rename) and recovers on its own at create time.
   A corrupted shard directory costs re-solves for that shard's keys
   only. *)

type shard = {
  lock : Mutex.t;
  cache : Serve.Schedule_cache.t;
  g_rate : Telemetry.Metrics.gauge;  (* cluster.shard.NN.hit_rate *)
}

type t = { shards : shard array }

let shard_dir base i = Filename.concat base (Printf.sprintf "shard-%02d" i)

let create ?dir ?tmp_sweep_age_s ~capacity ~shards () =
  if shards < 1 then
    raise (Robust.Failure.Error (Invalid_input "Sharded_cache.create: shards < 1"));
  if capacity < shards then
    raise (Robust.Failure.Error (Invalid_input "Sharded_cache.create: capacity < shards"));
  (* the shard subdirectories need the base directory to exist first *)
  (match dir with
   | Some d when not (Sys.file_exists d) ->
     (try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ())
   | _ -> ());
  let per_shard = (capacity + shards - 1) / shards in
  {
    shards =
      Array.init shards (fun i ->
          {
            lock = Mutex.create ();
            cache =
              Serve.Schedule_cache.create
                ?dir:(Option.map (fun d -> shard_dir d i) dir)
                ?tmp_sweep_age_s ~capacity:per_shard ();
            g_rate =
              Telemetry.Metrics.gauge (Printf.sprintf "cluster.shard.%02d.hit_rate" i);
          });
  }

let shard_count t = Array.length t.shards

(* Deterministic content-addressed placement: high 32 bits of the
   fingerprint hash, mod shard count. *)
let shard_index t fp =
  let h = Serve.Fingerprint.hash fp in
  let v = int_of_string ("0x" ^ String.sub h 0 8) in
  v mod Array.length t.shards

let with_shard t fp f =
  let s = t.shards.(shard_index t fp) in
  Mutex.protect s.lock (fun () ->
      let r = f s.cache in
      Telemetry.Metrics.set_gauge s.g_rate (Serve.Schedule_cache.hit_rate s.cache);
      r)

let find ?(count_miss = true) t ~arch ~layer fp =
  with_shard t fp (fun c -> Serve.Schedule_cache.find ~count_miss c ~arch ~layer fp)

let store t fp entry = with_shard t fp (fun c -> Serve.Schedule_cache.store c fp entry)

let persist t =
  Array.fold_left
    (fun acc s ->
      acc + Mutex.protect s.lock (fun () -> Serve.Schedule_cache.persist s.cache))
    0 t.shards

(* Aggregated counters across shards, as a fresh (non-shared) record. *)
let stats t =
  let agg =
    {
      Serve.Schedule_cache.hits = 0;
      disk_hits = 0;
      misses = 0;
      disk_rejects = 0;
      evictions = 0;
      stores = 0;
    }
  in
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          let st = Serve.Schedule_cache.stats s.cache in
          agg.Serve.Schedule_cache.hits <-
            agg.Serve.Schedule_cache.hits + st.Serve.Schedule_cache.hits;
          agg.Serve.Schedule_cache.disk_hits <-
            agg.Serve.Schedule_cache.disk_hits + st.Serve.Schedule_cache.disk_hits;
          agg.Serve.Schedule_cache.misses <-
            agg.Serve.Schedule_cache.misses + st.Serve.Schedule_cache.misses;
          agg.Serve.Schedule_cache.disk_rejects <-
            agg.Serve.Schedule_cache.disk_rejects + st.Serve.Schedule_cache.disk_rejects;
          agg.Serve.Schedule_cache.evictions <-
            agg.Serve.Schedule_cache.evictions + st.Serve.Schedule_cache.evictions;
          agg.Serve.Schedule_cache.stores <-
            agg.Serve.Schedule_cache.stores + st.Serve.Schedule_cache.stores))
    t.shards;
  agg

let shard_stats t i =
  let s = t.shards.(i) in
  Mutex.protect s.lock (fun () ->
      let st = Serve.Schedule_cache.stats s.cache in
      { st with Serve.Schedule_cache.hits = st.Serve.Schedule_cache.hits })

let rate_of (st : Serve.Schedule_cache.stats) =
  let served = st.Serve.Schedule_cache.hits + st.Serve.Schedule_cache.disk_hits in
  let total = served + st.Serve.Schedule_cache.misses in
  if total = 0 then 0. else float_of_int served /. float_of_int total

let hit_rate t = rate_of (stats t)

let shard_hit_rate t i =
  let s = t.shards.(i) in
  Mutex.protect s.lock (fun () -> Serve.Schedule_cache.hit_rate s.cache)

(* Per-shard counters as a JSON array — the ["shards"] section the
   cluster CLI wiring injects into the daemon's Stats frame. Read-only:
   copies each shard's counters under its own lock, books nothing. *)
let stats_json t =
  let module J = Telemetry.Json in
  J.List
    (List.mapi
       (fun i s ->
         let st, rate =
           Mutex.protect s.lock (fun () ->
               (Serve.Schedule_cache.stats s.cache, Serve.Schedule_cache.hit_rate s.cache))
         in
         J.Obj
           [ ("shard", J.Int i); ("hits", J.Int st.Serve.Schedule_cache.hits);
             ("disk_hits", J.Int st.Serve.Schedule_cache.disk_hits);
             ("misses", J.Int st.Serve.Schedule_cache.misses);
             ("disk_rejects", J.Int st.Serve.Schedule_cache.disk_rejects);
             ("evictions", J.Int st.Serve.Schedule_cache.evictions);
             ("stores", J.Int st.Serve.Schedule_cache.stores); ("hit_rate", J.Float rate) ])
       (Array.to_list t.shards))

(* The service-facing view. Per-fingerprint hit rates come from the
   owning shard's window, so admission prices a request against the
   partition it will actually probe. *)
let tier t =
  let probe ~count_miss ~arch ~layer fp =
    match find ~count_miss t ~arch ~layer fp with
    | Some (e, Serve.Schedule_cache.Memory) -> Some (e, Serve.Service.Cache_memory)
    | Some (e, Serve.Schedule_cache.Disk) -> Some (e, Serve.Service.Cache_disk)
    | None -> None
  in
  {
    Serve.Service.tier_find = probe ~count_miss:true;
    tier_peek = probe ~count_miss:false;
    tier_store = (fun fp e -> store t fp e);
    tier_hit_rate =
      (function
       | None -> hit_rate t
       | Some fp -> shard_hit_rate t (shard_index t fp));
    tier_persist = (fun () -> persist t);
    tier_stats = (fun () -> Some (stats t));
  }
