(** The call-by-call discrete-event simulator.

    Reproduces the paper's experimental methodology (Section 4): a run
    replays a pre-generated {!Trace} through a routing policy over a
    network, with an idle-start warm-up period excluded from statistics;
    replications re-generate the trace under fresh seeds and replay the
    *same* trace through every policy being compared. *)

open Arnet_topology
open Arnet_paths

type outcome =
  | Routed of Path.t  (** call admitted on this path *)
  | Lost  (** call blocked *)

type policy = {
  name : string;
  decide : occupancy:int array -> Trace.t -> int -> outcome;
      (** [decide ~occupancy trace i] routes call [i] of [trace] (read
          its columns) given the current per-link occupancy in bandwidth
          units (indexed by link id; read only), or blocks it.  The
          engine verifies that a returned path connects the call's
          endpoints and has room for the call's bandwidth on every
          link. *)
  primary : Trace.t -> int -> Path.t option;
      (** The path the policy prefers for call [i] absent congestion
          and failures.  A routed path [==] or {!Path.equal} to it
          counts as primary, any other as alternate; an alternate whose
          primary crosses a failed link also counts as a failover. *)
}

val run :
  ?warmup:float ->
  ?observer:(Arnet_obs.Event.t -> unit) ->
  ?script:Script.t ->
  graph:Graph.t ->
  policy:policy ->
  Trace.t ->
  Stats.t
(** [run ~graph ~policy trace] simulates the whole trace and returns
    statistics over the window [\[warmup, duration)] (default warm-up
    10 time units, the paper's choice; must be [< duration]).  This is
    the only replay loop: single- and multi-rate traces, with or
    without failures, all run through it.

    A call of class [c] holds [trace.bandwidths.(c)] units on every link
    of its path for its holding time.  No departure is scheduled: the
    run walks the trace's departure order ([Trace.order]) and releases
    each admitted call at the first arrival or script event at or after
    its end.  Departures at equal end times release in call-index order,
    and a call whose end rounds to its own arrival time is released at
    the next arrival.

    [script] (default {!Script.empty}) fails and repairs links during
    the run.  A [FAIL] releases every in-flight call crossing the link —
    inside the window each counts in [Stats.dropped] — and then holds
    the link at its full capacity until its [REPAIR] sets its occupancy
    back to 0.  A failed link is therefore a full link: every admission
    rule refuses it, and no policy needs a liveness map.  At one
    instant, departures due by a script event go first (a call ending
    the moment its link dies is complete, not dropped), then the script
    events in script order, then the arrival.  Script events after the
    last arrival are never applied.  Failure state applies from time 0,
    so the window starts in the scenario's true state.

    When [observer] is given, every step of the run streams through it
    as typed events: a [Run_start] frame, then per call any
    [Departure]s due by its arrival (a call a [FAIL] drops departs at
    the failure instant), its [Arrival] and the [Admit]/[Block]
    verdict, and finally the remaining in-window [Departure]s and a
    [Run_end].  Decision detail
    ([Primary_attempt], [Alternate_rejected]) is emitted by
    observer-aware policies (see [Arnet_core.Scheme]), not the engine.
    Without an observer the hot path is untouched: no events are
    constructed and the only cost is a branch per step.

    @raise Invalid_argument if the policy routes over a full (or
    failed) or nonexistent link (a policy bug), when the script
    mentions a link outside the graph, or on size mismatches. *)

val calls_simulated : unit -> int
(** Process-wide total of trace calls replayed by {!run} — a free-running
    odometer: the allocation checks divide a sweep's minor words by its
    delta.  Monotonic and never reset. *)

val replicate :
  ?warmup:float ->
  ?observe:(seed:int -> policy:string -> (Arnet_obs.Event.t -> unit) option) ->
  seeds:int list ->
  duration:float ->
  graph:Graph.t ->
  matrix:Arnet_traffic.Matrix.t ->
  policies:policy list ->
  unit ->
  (string * Stats.t list) list
(** For each seed: generate one trace and replay it through every policy.
    Returns, per policy (in the given order), the per-seed statistics.
    This is the paper's "run for each of 10 different seeds ... each
    algorithm was run with identical call arrivals and call holding
    times".

    [observe] selects an event observer per (seed, policy) run — return
    [None] to leave that run unobserved.  Runs execute seed-major in
    policy order, so a single shared sink sees well-formed
    [Run_start]/[Run_end] frames in sequence.  A run that raises
    propagates its exception unwrapped.

    Policies are reused across seeds, so they must be stateless between
    runs — true of every {!Arnet_core.Scheme} constructor except the
    adaptive one.  For policies with internal state use
    {!replicate_fresh}. *)

val replicate_fresh :
  ?warmup:float ->
  ?observe:(seed:int -> policy:string -> (Arnet_obs.Event.t -> unit) option) ->
  ?script:(seed:int -> Script.t) ->
  seeds:int list ->
  duration:float ->
  graph:Graph.t ->
  matrix:Arnet_traffic.Matrix.t ->
  policies:(unit -> policy list) ->
  unit ->
  (string * Stats.t list) list
(** Like {!replicate} but rebuilds the policy list for every seed, so
    policies that learn during a run (estimators, adaptive thresholds)
    start each replication clean.  The factory must produce the same
    policy names in the same order each time.

    [script ~seed] builds the seed's failure script, replayed through
    every policy — identical arrivals *and* identical failures across
    the policies being compared. *)

val replicate_grid :
  caller:string ->
  seeds:int list ->
  names:string list ->
  context:(int -> 'ctx) ->
  run:('ctx -> int -> 'r) ->
  unit ->
  (string * 'r list) list
(** The (seed × policy) replication grid behind {!replicate_fresh},
    also called directly by replications whose traces come from another
    generator (multi-rate workloads).
    [context seed] builds what one seed's runs share — its trace, and
    whatever else the caller derives from the seed (a failure script,
    fresh policies) — and [run ctx i] replays the policy at index [i]
    of [names].  Each seed's context is built once, and its runs follow
    in policy order.  Returns, per name in order, the per-seed results
    in [seeds] order.  A raising run propagates unwrapped.
    @raise Invalid_argument (prefixed with [caller]) on empty [seeds]. *)
