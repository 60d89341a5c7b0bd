(* Host-speed probe. On a shared host the speed of a core drifts by tens
   of percent within seconds, so the harness times this fixed piece of
   pure-OCaml work between items and passes, and normalises the gated
   timings by the median probe time of the same phase of the run (see
   README.md). Half of it is compute in the caches and half is dependent
   loads from main memory, because the workloads are a mix of both, and
   the two speed up unequally when the host's load changes. It allocates
   nothing, so GC settings cannot move it. *)

let src = Array.init 20_000 (fun i -> (i * 7919) land 0xFFFF)
let buf = Array.make (Array.length src) 0

(* 8 MB, beyond the caches; x -> x * odd mod 2^20 is a permutation whose
   orbit from 1 is long, so the chase below misses the caches every step.
   A Bigarray lives outside the OCaml heap, so it leaves the GC's pacing,
   and with it the workloads' memory use, as it was. *)
let chain =
  Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 20) (fun i ->
      (i * 2654435761) land ((1 lsl 20) - 1))

let probe () =
  let t0 = Unix.gettimeofday () in
  Array.blit src 0 buf 0 (Array.length src);
  Array.sort Int.compare buf;
  let f = ref 0. in
  for i = 1 to 50_000 do
    f := !f +. sqrt (float_of_int i)
  done;
  let j = ref 1 in
  for _ = 1 to 40_000 do
    j := Bigarray.Array1.unsafe_get chain !j
  done;
  ignore (Sys.opaque_identity (!f, !j));
  Unix.gettimeofday () -. t0

let samples = ref []
let sample () = samples := probe () :: !samples

(* The median probe time of the samples taken since the last call, in
   seconds; clears them. *)
let take () =
  let s = !samples in
  samples := [];
  match s with [] -> nan | s -> Prim.Stats.median s
