(** The daemon's mutable network state — the online form of the paper's
    two-tier admission controller.

    One value of {!t} is a live network: per-link occupancy, the
    precomputed route table (tier 1), per-link protection levels [r^k]
    enforced through {!Arnet_core.Admission} (tier 2), per-link
    {!Arnet_core.Estimator}s fed by the primary set-ups that fly past
    each link, and the call registry mapping admitted call ids to the
    circuits they hold.

    Each [SETUP] runs {!Arnet_core.Controller.route} over the pair's
    compiled plan — primary under the primary rule, then stored
    alternates in length order under the trunk-reservation rule — the
    decision every two-tier scheme of the simulator makes.  The rule's
    {!Arnet_core.Admission.t} gives each failed link capacity 0, so
    link failures reroute traffic around dead links without rebuilding
    the table; occupancy, reserves and snapshots keep the true values.
    [RELOAD] re-evaluates the Theorem-1 rule at the current demand
    estimates, the online reconfiguration the batch simulator cannot
    do.

    The state is single-threaded by design: the server serializes
    commands from all connections into one stream (the wire order *is*
    the decision order, which is what makes serving deterministic). *)

open Arnet_topology
open Arnet_traffic

type t

val create :
  ?h:int ->
  ?matrix:Matrix.t ->
  ?window:float ->
  ?smoothing:float ->
  ?reload_every:int ->
  ?failure_script:Arnet_sim.Script.t ->
  ?observer:(Arnet_obs.Event.t -> unit) ->
  Graph.t ->
  t
(** [create g] — a fresh daemon state over network [g], all links idle.

    [h] caps alternate hop length (default: unrestricted, as
    {!Arnet_paths.Route_table.build}).  [matrix] is the planning
    traffic matrix: when present, initial protection levels come from
    {!Arnet_core.Protection.levels} and the estimators are seeded with
    the matrix's primary link loads; without it links start
    unprotected (all [r^k = 0]) and converge as estimates accumulate.
    [window]/[smoothing] tune the estimators.  [reload_every = n]
    recomputes [r^k] automatically after every [n] admission decisions
    (the [--reload-every] cadence); [RELOAD] works either way.
    [failure_script] replays scripted FAIL/REPAIRs against the daemon:
    each event fires once the virtual clock (advanced by SETUP
    timestamps) passes its time, applied before the setup's own
    decision — so behaviour stays a pure function of the command
    stream, and a timestamped load replay is as deterministic with a
    storm as without one.  An event on a link of capacity 0 is
    skipped.  [observer] receives the server-side event
    stream ([Run_start] on creation, then [Arrival]/[Primary_attempt]/
    [Alternate_rejected]/[Admit]/[Block]/[Departure] per command).

    @raise Invalid_argument for [reload_every < 1], a script event on a
    link outside the graph, or estimator/route parameter violations. *)

(** {1 Commands} *)

val setup : t -> src:int -> dst:int -> time:float option -> Wire.response
(** Admit or refuse one call.  [time] advances the virtual clock
    (monotonically: a stale timestamp is clamped to the current clock,
    never an error); [None] leaves the clock still.  Returns
    [Admitted {id; path}], [Blocked], or [Err] for invalid endpoints
    or a draining daemon. *)

val teardown : t -> id:int -> Wire.response
(** Release an admitted call's circuits.  [Err unknown-call] when the
    id is not active (double teardown included). *)

val fail : t -> link:int -> Wire.response
(** Mark a link dead.  Calls holding a circuit on it are dropped (their
    other circuits released, counted in [stats.dropped]); subsequent
    setups route around it.  Idempotent.  [Err no-such-link] for an id
    out of range or a removed link (capacity 0). *)

val repair : t -> link:int -> Wire.response
(** Bring a failed link back into service (empty).  Idempotent.
    [Err no-such-link] as for {!fail}. *)

val link_add : t -> src:int -> dst:int -> capacity:int -> Wire.response
(** Add a directed link [src -> dst] and patch the route table
    ({!Arnet_paths.Route_table.patch}: the table of the changed graph
    is built).  A removed link of the pair comes back under its id;
    otherwise the new link gets the next free id.  It starts idle,
    with reserve 0 and a fresh estimator on the daemon's
    window/smoothing settings.  Returns [Patched] with the number of
    ordered pairs the link can affect, or [Err] for bad endpoints or a
    pair that has a link of positive capacity ([link-exists]). *)

val link_del : t -> src:int -> dst:int -> Wire.response
(** Remove the directed link [src -> dst]: calls holding a circuit on
    it are dropped (counted in [stats.dropped]), and it stays at its id
    with capacity 0, reserve 0 and no failure flag, so no link id ever
    moves and every per-link gauge reads 0 for it.  A link added with
    capacity 0 counts as removed from the start.  The route table of
    the changed graph is built.  Returns [Patched] with the number of
    ordered pairs whose routes held the link, or [Err no-such-link]
    when the pair has no link of positive capacity. *)

val reload : t -> Wire.response
(** Recompute every [r^k] by the Theorem-1 rule at the estimators'
    current demand estimates; returns [Reloaded] with the number of
    links whose level changed. *)

val drain : t -> Wire.response
(** Stop admitting ([setup] answers [Err draining] thereafter);
    teardowns still apply, so occupancy empties. *)

val stats : t -> Wire.stats

(** {1 Inspection} *)

val graph : t -> Graph.t
val routes : t -> Arnet_paths.Route_table.t
val clock : t -> float
val active_calls : t -> int
val draining : t -> bool

val drained : t -> bool
(** Draining and no active calls — the server's exit condition. *)

val occupancy : t -> int array
(** Per-link occupancy, by link id (fresh copy). *)

val reserves : t -> int array
(** Current protection levels [r^k] (fresh copy). *)

val failed_links : t -> int list
(** Currently failed link ids, ascending. *)

val finish : t -> unit
(** Emit the closing [Run_end] frame through the observer (idempotent;
    called by the server once drained). *)

val snapshot : t -> Arnet_serial.Snapshot.t
(** The drain-time state record written through [lib/serial]. *)
