(** Replayable call traces.

    The paper runs every routing algorithm against *identical call
    arrivals and call holding times* (Section 4).  We realize that by
    generating the workload once per seed — arrival instants from an
    aggregated Poisson process over the traffic matrix, exponential
    holding times, and one pre-drawn uniform variate per call for any
    randomized routing decision (e.g. bifurcated primaries) — and
    replaying the same trace through each scheme.

    Every call belongs to a class with its own bandwidth (in the units
    of link capacity).  A single-rate trace is one class of bandwidth 1;
    a multi-rate trace (see {!generate_classes}) has several. *)

open Arnet_traffic

type call = {
  time : float;  (** arrival instant *)
  src : int;
  dst : int;
  holding : float;  (** exponential holding time *)
  u : float;  (** uniform variate in [0,1) reserved for routing choices *)
}
(** One hand-built call — the input of {!of_calls}. *)

type t = private {
  times : float array;  (** arrival instants, sorted *)
  srcs : int array;
  dsts : int array;
  holdings : float array;
  us : float array;  (** routing variates *)
  ends : float array;  (** departure deadlines [times.(i) +. holdings.(i)] *)
  order : int array;
      (** the departure order: the call indices sorted by [ends], ties
          in index order.  Built once per trace, so every policy that
          replays it walks the same order (see {!Engine.run}). *)
  classes : int array;  (** class of each call, an index into [bandwidths] *)
  bandwidths : int array;  (** bandwidth of each class, [>= 1] *)
  duration : float;
  matrix : Matrix.t;  (** the demands that generated it, in calls *)
}
(** A trace is columns only: call [i] is the [i]-th entry of every
    per-call array, and [order] is a permutation of those indices.  The
    float columns are unboxed, so the engine's inner loop compares
    arrival times against departure deadlines without boxing a single
    float.  The columns are built once, validated, at construction;
    treat them as read-only. *)

val generate :
  ?mean_holding:float -> rng:Rng.t -> duration:float -> Matrix.t -> t
(** [generate ~rng ~duration matrix] draws the Poisson workload for
    [duration] time units, one class of bandwidth 1.  Pairs arrive with
    rate [T(i,j)] (unit-mean holding times by default, so demand in
    Erlangs equals arrival rate).
    Generation allocates nothing in the minor heap: its columns are
    sized once, for the expected call count plus eight standard
    deviations.
    @raise Invalid_argument when the matrix has no positive demand, its
    total is not finite, or [duration], [mean_holding] or
    [1 /. mean_holding] is not positive and finite. *)

val generate_classes :
  rng:Rng.t ->
  duration:float ->
  bandwidths:int array ->
  mean_holdings:float array ->
  Matrix.t array ->
  t
(** The multi-class form of {!generate}: class [c] offers the demands
    [matrices.(c)] (in calls), each call seizing [bandwidths.(c)] units
    for an exponential holding time of mean [mean_holdings.(c)].  The
    (class, pair) streams are superposed into one Poisson process, so a
    single class draws exactly what {!generate} draws.  The trace's
    [matrix] is the sum over classes.
    @raise Invalid_argument before any draw on empty or unequal class
    arrays, matrices of different sizes, a bandwidth below 1, no
    positive demand, a total demand that is not finite, or a
    [duration], mean holding time or holding rate ([1 /. mean_holding])
    that is not positive and finite. *)

val of_calls : matrix:Matrix.t -> duration:float -> call list -> t
(** Build a single-class trace from explicit calls — deterministic
    workloads for tests and replaying externally captured arrival logs.
    Calls must be sorted by time, lie in [\[0, duration)] for a positive
    finite [duration], have positive finite holding times, [u] in
    [\[0, 1)], valid distinct endpoints for the matrix's node count and
    a finite departure time [time +. holding].
    @raise Invalid_argument otherwise. *)

val of_class_calls :
  matrix:Matrix.t -> duration:float -> bandwidths:int array ->
  (int * call) list -> t
(** {!of_calls} with a class index per call, under the same checks,
    plus: every bandwidth is [>= 1] and every class index lies in
    [bandwidths].
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
    wherever both components are active.
    @raise Invalid_argument when node counts or class bandwidths
    differ. *)

val call_count : t -> int

val offered_between : t -> float -> float -> int
(** Calls arriving in the half-open window [\[lo, hi)]. *)

val check_sorted : t -> bool
(** Invariant check used by tests. *)
