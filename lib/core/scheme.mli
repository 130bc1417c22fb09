(** Ready-made routing policies for the simulator — the four algorithms
    compared throughout Section 4, plus a least-busy-alternative ablation.

    All constructors share a {!Arnet_paths.Route_table.t} so that every
    scheme sees the same primary paths and the same candidate alternates,
    exactly as in the paper's experiments.

    The two-tier schemes (all but the custom-decide ones) decide every
    call with {!Controller.route} over per-pair plans built at
    construction, at the call's bandwidth [b]: [occupancy + b <= C] on
    every primary link, [occupancy + b <= C - r] on every alternate
    link.  {!single_path}, {!uncontrolled}, {!controlled} and
    {!controlled_auto} accept an [?observer]: decision-level trace
    events ([Primary_attempt], [Alternate_rejected] with the refusing
    link, occupancy and trunk-reservation threshold) narrate each
    decision after it is made, so an observed run decides exactly as
    the unobserved one.

    The custom-decide schemes ({!ott_krishnan}, {!least_busy},
    {!controlled_length_aware}) have no trunk-reservation scan to
    narrate and take no observer.  Each is compiled at construction, as
    {!Controller.compile} compiles the two-tier schemes: per-pair plans
    (prebuilt paths, their [Routed] outcomes and the primary) and
    per-link tables, so deciding a call is array indexing and loops over
    ints and unboxed floats, allocating nothing.  They alone ignore a
    call's bandwidth; on a wideband trace the engine's full-link check
    stays the guard. *)

open Arnet_paths
open Arnet_traffic
open Arnet_sim

val single_path :
  ?choice:Controller.primary_choice ->
  ?observer:(Arnet_obs.Event.t -> unit) ->
  Route_table.t -> Engine.policy
(** Tier 1 only: a call completes on its primary path or is lost.
    [choice] (default the table primary, here and on {!controlled})
    selects tier 1's primary: a [Sampled] primary that is not the
    table's gets its alternates per call. *)

val uncontrolled :
  ?observer:(Arnet_obs.Event.t -> unit) ->
  Route_table.t -> Engine.policy
(** Alternate routing with no protection: any alternate with a free
    circuit on every link is taken. *)

val controlled :
  ?choice:Controller.primary_choice ->
  ?observer:(Arnet_obs.Event.t -> unit) ->
  reserves:int array -> Route_table.t -> Engine.policy
(** The paper's scheme: alternates admitted per-link only below
    [capacity - reserve].  [reserves] is indexed by link id — usually
    {!Protection.levels}. *)

val protected :
  reserves:int array -> Route_table.t -> Engine.policy
(** Protection-path routing (named ["protected"]): same two-tier
    decision rule as {!controlled}, intended for a
    {!Arnet_paths.Route_table.protected} table, where the single
    alternate per pair is the Suurballe link-disjoint mate of the
    primary — so overflow (and failover, under a failure script or in
    the live daemon) always lands on a path sharing no link with the
    primary. *)

val controlled_auto :
  ?observer:(Arnet_obs.Event.t -> unit) ->
  ?h:int -> matrix:Matrix.t -> Route_table.t -> Engine.policy
(** Convenience: computes reserves from the matrix via
    {!Protection.levels} with [h] defaulting to the route table's own
    alternate-length cap. *)

val controlled_per_link_h :
  matrix:Matrix.t -> Route_table.t -> Engine.policy
(** Footnote-5 ablation: protection levels from {!Protection.per_link_h}
    — each link protects only against the longest alternate that
    actually crosses it. *)

val controlled_length_aware :
  matrix:Matrix.t -> Route_table.t -> Engine.policy
(** The length-prioritized variant Section 3.2 discusses: a link judges
    each alternate call against the protection level for *that call's
    own path length* — an l-hop alternate is admitted below
    [C - level (Lambda, C, l)] — so shorter (cheaper) alternates face
    laxer thresholds.  The guarantee survives: an l-hop path's summed
    bound is at most [l * (1/l) = 1].  The paper expects the gains to be
    overwhelmed in practice; the ablation bench checks that.

    The table primary is tried first (below [C] on every link), then the
    first stored alternate, in attempt order, with [l <= H] whose every
    link is below its threshold.  The thresholds are computed once, one
    per link and length. *)

val controlled_adaptive :
  ?h:int ->
  ?window:float ->
  ?smoothing:float ->
  ?refresh:float ->
  ?initial_loads:float array ->
  Route_table.t -> Engine.policy
(** The fully distributed variant: no traffic matrix.  Every link
    estimates its own primary demand from the call set-ups that fly past
    it ({!Estimator}) and recomputes its protection level every
    [refresh] time units (default 10).  [initial_loads] seeds the
    estimators (planning values); without it links start unprotected and
    converge within a few windows.  Each call feeds the estimators on its
    table primary's links and is decided by {!Controller.route} under the
    levels in force. *)

val ott_krishnan :
  ?revenue:float ->
  ?reduced_load:bool ->
  matrix:Matrix.t -> Route_table.t -> Engine.policy
(** The separable shadow-price comparator [34]: a call is admitted on
    the candidate path (primary or alternate, any stored length)
    minimizing the sum of per-link implied costs
    [B(nu_k, C_k) / B(nu_k, s_k)] at the current occupancies, unless
    that minimum exceeds [revenue] (default 1, the paper's single-rate
    calls), in which case the call is blocked.  [nu_k] is the primary
    load; the paper uses the *unreduced* intensities (default); set
    [reduced_load] for the Erlang-fixed-point variant.

    The candidates are {!Arnet_paths.Route_table.all_paths}, in its
    order, and only a strictly cheaper path replaces the best so far, so
    the shortest wins among equal prices; an infinite cost (a full link)
    never wins.  Each link's prices are one {!Arnet_erlang.Shadow_price.row},
    indexed by occupancy (zeros below [C] on a link without primary
    load).
    @raise Invalid_argument unless [revenue > 0] ([infinity] is
    allowed). *)

val least_busy :
  ?reserves:int array -> Route_table.t -> Engine.policy
(** Ablation: primary first; among admissible alternates of the
    *shortest admissible length*, picks the one with most free circuits
    (aggregated-least-busy-alternative in the style of [28, 29]), with
    optional protection.  The primary is admitted below [C] on every
    link, an alternate below [C - r] ([r = 0] without [reserves]); a
    path's free circuits are its fewest [C - occupancy], and among equal
    counts the first in attempt order wins. *)

val name_of : Engine.policy -> string
