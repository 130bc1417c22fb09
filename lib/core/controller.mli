(** The two-tier routing decision of Section 1.

    Tier 1 (state-independent): a primary path is selected with no
    knowledge of network state — either the route table's unique
    minimum-hop path, or a sample from a bifurcated distribution using
    the call's pre-drawn uniform variate.

    Tier 2 (state-dependent): if the primary path is blocking, alternate
    paths are attempted in order of increasing hop length; an alternate
    completes only if every one of its links admits an alternate-routed
    call under the supplied {!Admission.t} (reserves all zero =
    uncontrolled alternate routing). *)

open Arnet_paths
open Arnet_sim

type primary_choice =
  | Table  (** the route table's deterministic primary *)
  | Sampled of (src:int -> dst:int -> u:float -> Path.t option)
      (** bifurcated SI policies: pick a primary using the call's
          uniform variate; [None] means the pair is unroutable *)

val primary_for :
  Route_table.t -> primary_choice -> Trace.t -> int -> Path.t option
(** The primary path tier 1 assigns to call [i] of the trace. *)

val pair_table :
  ?domains:int ->
  Route_table.t ->
  unroutable:'a ->
  (src:int -> dst:int -> 'a) ->
  'a array
(** [pair_table routes ~unroutable plan] is the per-pair decision table
    of a compiled policy: [plan ~src ~dst] for every ordered pair the
    table routes, and [unroutable] for the rest (including [src = dst]),
    row-major at [src * n + dst] for [n] nodes.  [plan] runs once per
    routable pair, at construction, so a policy that indexes the table
    by a call's endpoints decides without building anything per call.
    [domains] (default 1) shards the per-source rows across OCaml
    domains; [plan] must then be safe to call concurrently, and the
    table is bit-identical for every domain count. *)

(** Two-tier decision material for one ordered pair, as {!compile} and
    the compiled least-busy and length-aware policies use it. *)
type plan = {
  plan_primary : Path.t option;
      (** the table primary, prebuilt; [None] when unroutable *)
  routed_primary : Engine.outcome;  (** [Routed] primary, or [Lost] *)
  alt_paths : Path.t array;
      (** {!Route_table.alternate_array}: attempt order, increasing
          hops, table primary excluded *)
  alt_outcomes : Engine.outcome array;  (** [Routed alt_paths.(i)] *)
}

val plans : ?domains:int -> Route_table.t -> plan array
(** The {!pair_table} of two-tier plans. *)

val compile :
  ?domains:int ->
  name:string ->
  routes:Route_table.t ->
  admission:Admission.t ->
  allow_alternates:bool ->
  unit ->
  Engine.policy
(** The allocation-free form of {!decide} for the table-primary,
    unobserved case — what every scheme in the paper's benchmark
    configuration runs, and every multi-rate and failure-sweep policy.
    Decision material is precomputed once per ordered O-D pair: the
    primary path, its [Routed] outcome, the primary-excluded alternates
    (the route table's prebuilt attempt order) and their [Routed]
    outcomes.  Deciding a call is then plan lookup plus per-link
    occupancy compares; the steady-state per-call hot path (admit,
    departure, blocked-primary probe) allocates no minor-heap words.

    The compiled policy reads the call's bandwidth [b] from the trace
    and admits a path under {!Admission.path_admits}: every link needs
    [occupancy + b <= C - r], with [r = 0] on the primary.  At [b = 1]
    its decisions are identical to [decide ~choice:Table] with no
    observer.  [domains] (default 1)
    shards the per-source plan rows across OCaml domains during
    compilation — at 1000+ nodes the n² plan build dominates setup —
    and the compiled policy is bit-identical for every domain count. *)

val decide :
  ?observer:(Arnet_obs.Event.t -> unit) ->
  routes:Route_table.t ->
  admission:Admission.t ->
  choice:primary_choice ->
  allow_alternates:bool ->
  occupancy:int array ->
  Trace.t ->
  int ->
  Engine.outcome
(** The full decision for call [i] of the trace, single-rate: try the
    primary under the primary rule; when it blocks and
    [allow_alternates], try each stored alternate (excluding the chosen
    primary) in length order under the alternate rule; first fit wins,
    otherwise the call is lost.

    With an [observer], the decision explains itself as it goes: one
    [Primary_attempt] per routable call, then one [Alternate_rejected]
    per refused alternate carrying the first refusing link, its
    occupancy and the trunk-reservation threshold [C - r] that turned
    the call away.  Without one, the original allocation-free scan
    runs. *)
