(** Replayable call traces.

    The paper runs every routing algorithm against *identical call
    arrivals and call holding times* (Section 4).  We realize that by
    generating the workload once per seed — arrival instants from an
    aggregated Poisson process over the traffic matrix, exponential
    holding times, and one pre-drawn uniform variate per call for any
    randomized routing decision (e.g. bifurcated primaries) — and
    replaying the same trace through each scheme. *)

open Arnet_traffic

type call = {
  time : float;  (** arrival instant *)
  src : int;
  dst : int;
  holding : float;  (** exponential holding time *)
  u : float;  (** uniform variate in [0,1) reserved for routing choices *)
}

type t = private {
  calls : call array;  (** sorted by arrival time *)
  times : float array;  (** packed column of [calls.(i).time] *)
  srcs : int array;  (** packed column of [calls.(i).src] *)
  dsts : int array;  (** packed column of [calls.(i).dst] *)
  holdings : float array;  (** packed column of [calls.(i).holding] *)
  us : float array;  (** packed column of [calls.(i).u] *)
  ends : float array;  (** departure deadlines [time +. holding] *)
  duration : float;
  matrix : Matrix.t;  (** the demands that generated it *)
}
(** A trace carries the workload twice: [calls] is the record (AoS)
    view every policy consumes, and the packed columns are the
    structure-of-arrays view the simulation hot path reads.  The float
    columns are unboxed, so the engine's inner loop compares times and
    queues departures ({!Event_queue.push_at} on [ends]) without boxing
    a single float.  Both views are built once at construction and are
    always consistent; treat the arrays as read-only. *)

val generate :
  ?mean_holding:float -> rng:Rng.t -> duration:float -> Matrix.t -> t
(** [generate ~rng ~duration matrix] draws the Poisson workload for
    [duration] time units.  Pairs arrive with rate [T(i,j)]
    (unit-mean holding times by default, so demand in Erlangs equals
    arrival rate).
    @raise Invalid_argument when the matrix has no positive demand, or
    [duration] or [mean_holding] is not positive and finite. *)

val of_calls : matrix:Matrix.t -> duration:float -> call list -> t
(** Build a trace from explicit calls — deterministic workloads for
    tests and replaying externally captured arrival logs.  Calls must be
    sorted by time, lie in [\[0, duration)] for a positive finite
    [duration], have positive holding times, [u] in [\[0, 1)] and valid
    distinct endpoints for the matrix's node count.
    @raise Invalid_argument otherwise. *)

val shift : t -> float -> t
(** [shift t dt] delays every call by [dt >= 0] and extends the duration
    accordingly — for building staged workloads (e.g. a surge that
    starts mid-run).
    @raise Invalid_argument when [dt < 0]. *)

val merge : t -> t -> t
(** Superpose two traces (merge by arrival time).  The result's duration
    is the later of the two and its matrix the sum — the superposition
    of independent Poisson processes is Poisson at the summed rate, so a
    merged trace is statistically a workload of the summed matrix
    wherever both components are active.  Node counts must agree. *)

val call_count : t -> int

val offered_between : t -> float -> float -> int
(** Calls arriving in the half-open window [\[lo, hi)]. *)

val check_sorted : t -> bool
(** Invariant check used by tests. *)
