(** A metrics registry: counters, gauges and fixed-bucket histograms,
    rendered as Prometheus exposition text.

    Series are identified by metric name plus a sorted label set, the
    Prometheus data model; registering the same (name, labels) twice
    returns the existing series, so call sites need not thread handles
    around.  Each family keys its series by label set in a hash table,
    so registering or finding a series costs O(1) however many the
    family holds; exposition lists them in registration order.  Updates
    are plain field mutations — cheap enough to sit on the simulator's
    per-event path. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter :
  t -> ?labels:(string * string) list -> ?help:string -> string -> counter
(** @raise Invalid_argument on an invalid metric/label name, or when
    [name] is already registered with a different type. *)

val gauge :
  t -> ?labels:(string * string) list -> ?help:string -> string -> gauge

val histogram :
  t ->
  ?labels:(string * string) list ->
  ?help:string ->
  buckets:float array ->
  string ->
  histogram
(** [buckets] are finite upper bounds, strictly increasing; an implicit
    [+Inf] bucket catches the overflow.
    @raise Invalid_argument on bad bounds or when re-registered with
    different buckets. *)

val log_buckets : lo:float -> hi:float -> per_decade:int -> float array
(** Logarithmically spaced bounds covering [\[lo, hi\]] with
    [per_decade] buckets per factor of 10 — the fixed log-scale shape
    used for latency- and holding-time-like quantities.
    @raise Invalid_argument unless [0 < lo < hi] and [per_decade >= 1]. *)

val inc : counter -> unit
val inc_by : counter -> float -> unit
(** @raise Invalid_argument when the increment is negative. *)

val set : gauge -> float -> unit
val add : gauge -> float -> unit

val observe : histogram -> float -> unit

(** {1 Reading (tests, syncing, the load generator's summary)} *)

val counter_value : counter -> float
val gauge_value : gauge -> float
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) list
(** [(upper bound, cumulative count)] pairs ending with [(infinity,
    total)] — the exposition-format convention. *)

(** {1 Rendering} *)

val escape_label_value : string -> string
(** Exposition-format label-value escaping: [\\] → [\\\\], ["] → [\\"],
    newline → [\\n]. *)

val unescape_label_value : string -> string
(** Inverse of {!escape_label_value}; escape sequences it does not emit
    (and a trailing backslash) pass through verbatim, so
    [unescape_label_value (escape_label_value s) = s] for every [s]. *)

val escape_help : string -> string
(** [# HELP] text escaping — the exposition format's smaller set:
    [\\] → [\\\\] and newline → [\\n] (quotes stay literal). *)

val to_prometheus : t -> string
(** Prometheus text exposition format: [# HELP]/[# TYPE] headers, one
    line per series, histogram [_bucket]/[_sum]/[_count] expansion.
    Label values and help text are escaped per the format.
    Families render in registration order. *)
