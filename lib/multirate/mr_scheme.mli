(** Controlled alternate routing for multi-rate calls.

    Extension of the paper's scheme to its declared future work.  The
    admission rules generalize naturally: a link accepts a *primary*
    class-[c] call while [occupancy + bandwidth_c <= C], and an
    *alternate-routed* one only while
    [occupancy + bandwidth_c <= C - r] — the protected band now counts
    bandwidth units rather than calls.  That is the rule every two-tier
    policy applies ({!Arnet_core.Controller.route}), so the
    constructors below are the paper's schemes under [mr-*] names.

    Protection levels come from the single-rate machinery applied to the
    link's offered *bandwidth* load (sum over classes of
    [bandwidth_c * Lambda_c]), with capacity in units.  This is a
    heuristic, not a theorem: Theorem 1's chain analysis is per-call.
    The multi-rate experiment checks the guarantee empirically
    (controlled never worse than single-path on bandwidth blocking). *)

open Arnet_paths

val bandwidth_loads : Route_table.t -> Mr_trace.workload -> float array
(** Per link: offered bandwidth units per unit time along primaries —
    the multi-rate Equation 1. *)

val protection_levels :
  Route_table.t -> Mr_trace.workload -> h:int -> int array
(** Section 3.1 levels on the bandwidth loads. *)

val single_path : Route_table.t -> Arnet_sim.Engine.policy
(** {!Arnet_core.Scheme.single_path} named ["mr-single-path"]. *)

val uncontrolled : Route_table.t -> Arnet_sim.Engine.policy
(** {!Arnet_core.Scheme.uncontrolled} named ["mr-uncontrolled"]. *)

val controlled : reserves:int array -> Route_table.t -> Arnet_sim.Engine.policy
(** {!Arnet_core.Scheme.controlled} named ["mr-controlled"].
    @raise Invalid_argument on a reserve array of the wrong length or a
    reserve outside [0 .. capacity]. *)

val controlled_auto :
  ?h:int -> Route_table.t -> Mr_trace.workload -> Arnet_sim.Engine.policy
(** {!controlled} at the {!protection_levels} of the workload, with [h]
    defaulting to the route table's own alternate-length cap. *)
