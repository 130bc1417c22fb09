(** Seeded stochastic failure models, compiled to {!Arnet_sim.Script}s.

    Each generator draws from named {!Arnet_sim.Rng} substreams, so a
    scenario is a pure function of the master seed and its parameters:
    the same seed always yields the same script, and the script — not
    the process — is what the engine and the daemon replay.  That makes
    every failure experiment bit-reproducible and lets a surprising run
    be saved ({!Arnet_sim.Script.to_file}) and replayed against the live daemon.

    Up- and down-times are exponential: a link (or group) stays up for
    [Exp(1/mtbf)], fails, stays down for [Exp(1/mttr)], repairs, and so
    on until the horizon.  An outage still open at the horizon emits no
    repair — by then the simulated workload has ended.

    Repairs are literal script events, and both the replay loop
    ({!Arnet_sim.Engine.run} [~script]) and the daemon apply them
    unconditionally, so when two correlated outages overlap on a link
    the earlier repair ends both — a deliberate simplification that
    keeps replay stateless and deterministic. *)

open Arnet_topology
open Arnet_sim

val independent :
  rng:Rng.t -> duration:float -> mtbf:float -> mttr:float -> Graph.t ->
  Script.t
(** Independent alternating up/down renewal process per directed link.
    Note that builders derived from undirected edges represent one fiber
    as two directed links; use [srlg ~groups:(edge_groups g)] when a cut
    should take both directions down together.
    @raise Invalid_argument when [duration], [mtbf] or [mttr] is not
    positive and finite. *)

val srlg :
  rng:Rng.t -> duration:float -> mtbf:float -> mttr:float ->
  groups:int list list -> Graph.t -> Script.t
(** Shared-risk link groups: one renewal process per group; every link
    in a group fails and repairs together.  Links outside any group
    never fail.
    @raise Invalid_argument on bad rates, an empty group, an
    out-of-range link id, or a link id in two groups. *)

val edge_groups : Graph.t -> int list list
(** Links grouped by undirected endpoint pair — for graphs built from
    undirected edges this pairs the two directions of each fiber, the
    natural [srlg] grouping for physical cuts.  Deterministic order. *)

val regional :
  ?coords:(float * float) array ->
  rng:Rng.t -> duration:float -> rate:float -> mttr:float -> radius:float ->
  Graph.t -> Script.t
(** Regional outages: epicenters arrive Poisson at [rate], uniform on
    the unit square; every link with an endpoint within [radius] of the
    epicenter fails, and the whole region repairs together after
    [Exp(1/mttr)].  [coords] places nodes on the unit square; when
    omitted they are drawn deterministically from [rng] (the topology
    layer keeps no coordinates — see {!unit_square_coords}).
    @raise Invalid_argument on non-positive [duration]/[rate]/[mttr]/
    [radius], a [coords] length mismatch, or non-finite coordinates. *)

val unit_square_coords : rng:Rng.t -> nodes:int -> (float * float) array
(** Deterministic node placement on the unit square (substream
    ["coords"]) — the default geometry behind {!regional}.
    @raise Invalid_argument when [nodes < 0]. *)
