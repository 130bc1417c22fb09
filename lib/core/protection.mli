(** State-protection (trunk-reservation) levels — Section 3.1.

    A link with capacity [C], estimated primary demand [Lambda] and
    protection level [r] refuses alternate-routed calls in its top
    [r + 1] states.  Theorem 1 bounds the primary calls lost per accepted
    alternate call by [B(Lambda, C) / B(Lambda, C - r)]; requiring that
    bound [<= 1/H] on every link of an alternate path of at most [H]
    hops makes the path's total expected damage at most 1 — accepting
    the call can only improve on single-path routing.  The scheme
    therefore picks the *smallest* such [r]: maximally permissive
    alternate routing that still carries the guarantee. *)

open Arnet_paths
open Arnet_traffic

val level : offered:float -> capacity:int -> h:int -> int
(** [level ~offered ~capacity ~h] is the smallest [r] with
    [B(offered, capacity) / B(offered, capacity - r) <= 1 / h], or
    [capacity] when no [r] satisfies it (protecting every state, i.e.
    never accepting alternate calls — the fate of overloaded links such
    as 10->11 in Table 1).  [h = 1] yields 0: a one-hop alternate call
    is as cheap as a primary.
    @raise Invalid_argument if [h < 1], [capacity < 1] or
    [offered <= 0]. *)

val bound : offered:float -> capacity:int -> reserve:int -> float
(** The Theorem-1 bound [B(offered, capacity) /
    B(offered, capacity - reserve)] on expected primary losses per
    accepted alternate call. *)

val link_level : offered:float -> capacity:int -> h:int -> int
(** The level of one link of a network: 0 when [offered <= 0] (no
    primary traffic worth protecting) or [capacity = 0] (the link admits
    no call, so it has no state to protect), else {!level}. *)

val levels_of_loads : capacities:int array -> loads:float array -> h:int -> int array
(** {!link_level} of every link. *)

val levels : Route_table.t -> Matrix.t -> h:int -> int array
(** Levels for every link of the route table's graph, with [Lambda]
    computed from the matrix by Equation 1 (the simulator's stance that
    links know their primary demand a priori, Section 4). *)

val sweep : capacity:int -> h:int -> loads:float list -> (float * int) list
(** [(load, level)] pairs — the curves of Figure 2. *)

val per_link_h : Route_table.t -> int array
(** Footnote 5's refinement: [H^k], the longest alternate path that
    actually traverses link [k] under the given route table.  Links that
    no alternate crosses get 1 (the loosest requirement).  Protecting
    link [k] for [H^k] instead of the global [H] keeps the Section 3.1
    guarantee: every link on an alternate path of length [l] has
    [H^k >= l] (that path itself crosses it), so the path's summed bound
    is at most [l * (1/l) = 1] — while links that only short alternates
    use get smaller [r], i.e. freer alternate routing. *)

val levels_per_link_h :
  Route_table.t -> Matrix.t -> int array
(** Levels using [H^k] from {!per_link_h} instead of a global [H]. *)

val path_guarantee :
  capacities:int array -> loads:float array -> reserves:int array ->
  link_ids:int list -> float
(** Sum of per-link Theorem-1 bounds along a path: the guaranteed upper
    bound on primary calls displaced by routing one call there.  The
    scheme's invariant is that this is [<= 1] for every admissible
    alternate path (links with zero load contribute zero — no primary
    calls exist to displace). *)
