(** A minimal JSON value type with a round-trippable printer/parser —
    the program's one JSON codec.

    Every JSON document the program writes or reads goes through it:
    JSONL traces, lint findings ([Arnet_analysis.Diagnostic]), the
    daemon's [/statz], the load generator's and the simulator's
    [--json] results.  No JSON library is assumed, so this is a
    dependency-free reader for exactly the values we print (objects,
    arrays, strings, integers, floats, booleans and null).  Floats
    print with enough digits ([%.17g]) to round-trip bit-exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_buffer : Buffer.t -> t -> unit

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input. *)

val float_to_string : float -> string
(** The printer's float convention, exposed for non-[t] emitters (the
    Prometheus renderer). *)

(** Accessors; they raise {!Parse_error} on a shape mismatch, so
    readers surface one uniform error type. *)

val member_exn : string -> t -> t
val as_int : t -> int
val as_float : t -> float
(** Accepts both [Int] and [Float] (JSON does not distinguish). *)

val as_string : t -> string
val as_bool : t -> bool
val as_list : t -> t list
