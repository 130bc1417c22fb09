(** The two-tier routing decision of Section 1.

    Tier 1 (state-independent): a primary path is selected with no
    knowledge of network state — either the route table's unique
    minimum-hop path, or a sample from a bifurcated distribution using
    the call's pre-drawn uniform variate.

    Tier 2 (state-dependent): if the primary path is blocking, alternate
    paths are attempted in order of increasing hop length; an alternate
    completes only if every one of its links admits an alternate-routed
    call under the supplied {!Admission.t} (reserves all zero =
    uncontrolled alternate routing).  {!route} is the one implementation
    of this rule: every two-tier scheme and the daemon decide with it. *)

open Arnet_paths
open Arnet_sim

type primary_choice =
  | Table  (** the route table's deterministic primary *)
  | Sampled of (src:int -> dst:int -> u:float -> Path.t option)
      (** bifurcated SI policies: pick a primary using the call's
          uniform variate; [None] means the pair is unroutable *)

val pair_table :
  Route_table.t ->
  unroutable:'a ->
  (src:int -> dst:int -> 'a) ->
  'a array
(** [pair_table routes ~unroutable plan] is the per-pair decision table
    of a compiled policy: [plan ~src ~dst] for every ordered pair the
    table routes, and [unroutable] for the rest (including [src = dst]),
    row-major at [src * n + dst] for [n] nodes.  [plan] runs once per
    routable pair, at construction, so a policy that indexes the table
    by a call's endpoints decides without building anything per call. *)

(** Two-tier decision material for one ordered pair, as {!route} and
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

val plans : Route_table.t -> plan array
(** The {!pair_table} of two-tier plans. *)

val route :
  Admission.t ->
  allow_alternates:bool ->
  occupancy:int array ->
  bandwidth:int ->
  plan ->
  Engine.outcome
(** The two-tier rule for a call of [bandwidth] units: the plan's
    primary if {!Admission.path_admits} admits it as a primary, else
    (when [allow_alternates]) the first of [alt_paths] it admits as an
    alternate, else [Lost].  Returns the plan's prebuilt outcomes, so it
    allocates nothing.  A link of capacity 0 refuses every call: that is
    how the daemon keeps calls off failed links. *)

val narrate :
  Admission.t ->
  allow_alternates:bool ->
  occupancy:int array ->
  bandwidth:int ->
  plan ->
  Engine.outcome ->
  (Path.t -> link:int -> occupancy:int -> threshold:int -> unit) ->
  unit
(** Explains, read-only, the [outcome] {!route} returned for the same
    arguments: calls [f] for each alternate tried before the chosen one
    (all of them when the call was lost past a refused primary), in
    attempt order, with its first refusing link, that link's occupancy
    and its threshold [C - r] ({!Admission.alternate_refusal}). *)

val compile :
  ?observer:(Arnet_obs.Event.t -> unit) ->
  ?choice:primary_choice ->
  name:string ->
  routes:Route_table.t ->
  admission:Admission.t ->
  allow_alternates:bool ->
  unit ->
  Engine.policy
(** A two-tier policy: {!route} over the call's pair {!plan}, built once
    per ordered O-D pair at construction, at the call's bandwidth.  With
    table primaries (the default [choice]) and no [observer], the
    steady-state per-call path allocates nothing.  A [Sampled] primary
    that is the table's uses the pair's plan; any other attempts the
    pair's other {!Route_table.candidates}, taken from the table once per
    pair at construction and filtered per call.  An
    [observer] hears each decision after it is made, so it cannot change
    one: one [Primary_attempt] per routable call (admitted iff the
    primary was routed), then one [Alternate_rejected] per alternate
    {!narrate} reports. *)
