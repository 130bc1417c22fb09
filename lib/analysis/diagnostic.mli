(** Findings produced by the static verification pass.

    A diagnostic pins a violated (or suspicious) invariant to a
    location: a link, an ordered O-D pair, a node, or the configuration
    as a whole.  Codes are stable kebab-case strings so scripts can
    filter on them; the full table lives in docs/TUTORIAL.md and is
    printed by [arn lint --list]. *)

type severity =
  | Error  (** the Theorem-1 guarantee (or basic well-formedness) is broken *)
  | Warning  (** legal but dangerous — e.g. an overloaded link *)
  | Info  (** noteworthy, no action required *)

type location =
  | Network  (** the configuration as a whole *)
  | Node of int
  | Link of { id : int; src : int; dst : int }
  | Pair of { src : int; dst : int }  (** an ordered O-D pair *)

type t = {
  code : string;  (** stable kebab-case identifier *)
  severity : severity;
  location : location;
  message : string;  (** human-readable, [Module.function: reason] style *)
}

val error : code:string -> location -> string -> t
val warning : code:string -> location -> string -> t
val info : code:string -> location -> string -> t

val is_error : t -> bool

val compare : t -> t -> int
(** Orders by severity (errors first), then code, then location — the
    stable report order. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity[code] location: message]. *)

val to_string : t -> string

(** {1 JSON}

    A list of findings is a JSON array of objects
    [{"code": ..., "severity": ..., "location": {"kind": ..., ...},
    "message": ...}], keys in that order, written and read by
    {!Arnet_obs.Jsonu} (compact, one line), so
    [list_of_json (json_of_list ds) = ds] for every diagnostic list. *)

val json_of_list : t list -> string

val list_of_json : string -> t list
(** @raise Invalid_argument on input that is not JSON of that shape. *)
