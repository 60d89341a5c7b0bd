(** The one JSON value, writer and reader.

    Every JSON emitter in the system — the Chrome and JSONL trace exports,
    the event log, the metrics object, the daemon's Stats payloads and
    [BENCH_results.json] — builds a {!t} and prints it with {!to_string};
    every reader parses with {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members print in the order given *)

val to_buffer : Buffer.t -> t -> unit
(** Compact JSON (no whitespace), keys in the order given.

    Strings escape the double quote, the backslash, newline, carriage
    return, tab and the other control bytes (as [\u00XX]); every other
    byte, non-ASCII included, is copied as is.

    Floats: non-finite values (which JSON cannot express) print as [0];
    integers below 1e15 print without a fraction; any other float prints
    in the shortest of [%.15g] and [%.17g] that reads back to the same
    value, so no digit of a timestamp or a sub-millisecond wait is lost. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Strict RFC 8259 reader over the whole string: literals are checked,
    [\uXXXX] escapes (surrogate pairs included) decode to UTF-8, raw
    control bytes inside strings and trailing non-whitespace are
    rejected. A number without fraction or exponent that fits an [int]
    parses to [Int], any other number to [Float]. The error message ends
    with ["at byte N"], the offset where parsing stopped. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the first value under key [k]; [None] for a
    missing key or a non-object. *)
