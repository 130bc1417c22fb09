(** Simulation statistics.

    One {!t} is accumulated per run over the measurement window (after
    warm-up); the record functions mutate in place because they sit on
    the simulator's per-call hot path.  Replication helpers aggregate
    across seeds the way the paper does (10 seeds, mean curves). *)

type t = {
  nodes : int;
  mutable offered : int;  (** calls offered in the window *)
  mutable blocked : int;  (** calls lost *)
  mutable carried_primary : int;  (** completed on their primary path *)
  mutable carried_alternate : int;  (** completed on an alternate path *)
  mutable alternate_hops : int;  (** total hops over alternate-routed calls *)
  offered_od : int array;  (** per ordered pair, row-major [src*n + dst] *)
  blocked_od : int array;
  class_offered : int array;  (** per call class (see {!Trace.t}) *)
  class_blocked : int array;
  mutable offered_bandwidth : int;  (** bandwidth units requested *)
  mutable blocked_bandwidth : int;  (** bandwidth units refused *)
  mutable dropped : int;
      (** in-flight calls killed by a script [FAIL] inside the window *)
  mutable failovers : int;
      (** alternate admissions whose primary crossed a failed link *)
}

val empty : nodes:int -> classes:int -> t
(** @raise Invalid_argument when [nodes < 2] or [classes < 1]. *)

val record_offered : t -> src:int -> dst:int -> cls:int -> bandwidth:int -> unit
val record_blocked : t -> src:int -> dst:int -> cls:int -> bandwidth:int -> unit
val record_primary : t -> unit
val record_alternate : t -> hops:int -> unit

val blocking : t -> float
(** Network average blocking [blocked / offered], all classes pooled per
    call; 0 when nothing was offered. *)

val class_blocking : t -> int -> float
(** Blocking of one class; 0 when it offered nothing. *)

val bandwidth_blocking : t -> float
(** Blocked over offered bandwidth — weights wideband calls by their
    size; equals {!blocking} on a single-rate trace. *)

val od_blocking : t -> src:int -> dst:int -> float option
(** Per-pair blocking; [None] when the pair offered no calls. *)

val alternate_fraction : t -> float
(** Fraction of carried calls that used an alternate path. *)

val merge : t -> t -> t
(** Pool two windows into a fresh accumulator (same node and class
    counts). *)

(** {1 Across-seed aggregation} *)

type summary = {
  mean : float;
  std_error : float;  (** of the mean; 0 for a single replication *)
  replications : int;
}

val summarize : float list -> summary
(** @raise Invalid_argument on an empty list. *)

val confidence_95 : summary -> float * float
(** Two-sided 95% Student-t interval around the mean (the right small-n
    treatment for the paper's 10-seed replications).  Degenerates to the
    point [(mean, mean)] for a single replication. *)

val blocking_summary : t list -> summary
(** Summary of per-run network blocking across replications. *)

(** {1 Fairness (Section 4.2.2, "Blocking on an O-D pair basis")} *)

type skew = {
  min_blocking : float;
  max_blocking : float;
  mean_blocking : float;
  coefficient_of_variation : float;
  (** std-dev of per-pair blocking over its mean; 0 when perfectly fair *)
}

val od_skew : t -> skew
(** Computed over pairs that offered at least one call.
    @raise Invalid_argument when no pair offered traffic. *)
