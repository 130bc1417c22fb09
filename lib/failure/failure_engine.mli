(** The discrete-event simulator with live link failures.

    Mirrors {!Arnet_sim.Engine} but threads a {!Script} through the run:
    [FAIL] kills a link (and drops every call in flight across it, the
    way a fiber cut does), [REPAIR] brings it back, and policies decide
    with the current liveness map in hand — the batch twin of the
    daemon's [FAIL]/[REPAIR] commands, replaying the same script files.

    Script events and departures merge in time order before each
    arrival; at equal instants the departure wins (a call ending the
    moment its link dies is complete, not dropped), then script events
    apply in script order, then the arrival is decided.  Replays are a
    pure function of (trace, script, policy): bit-identical per seed,
    sequential or pooled. *)

open Arnet_topology
open Arnet_paths
open Arnet_sim

type policy = {
  name : string;
  decide :
    occupancy:int array -> alive:bool array -> call:Trace.call ->
    Engine.outcome;
      (** Like {!Arnet_sim.Engine.policy}[.decide] plus the liveness map
          ([alive.(link)] is false while the link is failed; read only).
          The engine verifies a returned path is alive, has spare
          capacity, and connects the endpoints. *)
  is_primary : call:Trace.call -> Path.t -> bool;
  primary_of : call:Trace.call -> Path.t option;
      (** The path the policy would have preferred absent any failure —
          lets the engine classify an alternate admission as a
          *failover* (primary dead) rather than overflow (primary
          busy). *)
}

type stats = {
  core : Stats.t;  (** offered/blocked/carried, as in the plain engine *)
  dropped : int;
      (** in-flight calls killed by a [FAIL] inside the measurement
          window *)
  failovers : int;
      (** admissions routed around a *failed* (not merely busy) primary
          inside the window *)
}

val path_alive : bool array -> Path.t -> bool
(** Every link of the path is up — the filter policies apply before
    occupancy checks. *)

val run :
  ?warmup:float ->
  ?script:Script.t ->
  graph:Graph.t ->
  policy:policy ->
  Trace.t ->
  stats
(** [run ~graph ~policy trace] replays the trace under the script
    (default {!Script.empty}, which makes this the plain engine plus a
    liveness map of all-true).  Statistics cover [\[warmup, duration)];
    drops and failovers outside the window are not counted, but the
    failure state itself is applied from time 0 so the window starts in
    the scenario's true state.
    @raise Invalid_argument on the plain engine's policy-bug conditions,
    on a policy routing over a failed link, or when the script mentions
    a link outside the graph. *)

val replicate_fresh :
  ?warmup:float ->
  ?mean_holding:float ->
  ?domains:int ->
  seeds:int list ->
  duration:float ->
  graph:Graph.t ->
  matrix:Arnet_traffic.Matrix.t ->
  script:(seed:int -> Script.t) ->
  policies:(unit -> policy list) ->
  unit ->
  (string * stats list) list
(** Per seed: generate the trace (same substream as
    {!Arnet_sim.Engine.replicate}, so workloads match the plain
    engine's), build the seed's script, and replay it through every
    policy — identical arrivals *and* identical failures across the
    policies being compared.  [domains] shards (seed × policy) runs
    through {!Arnet_sim.Engine.replicate_grid} exactly like the plain
    engine, bit-identical to sequential; failures re-raise as
    {!Arnet_sim.Engine.Replication_failure}. *)
