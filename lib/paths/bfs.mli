(** Minimum-hop (unweighted shortest path) computations.

    The base state-independent policy the paper demonstrates is
    minimum-hop routing with a *unique* primary path per ordered pair
    (Section 1).  Uniqueness is obtained with a deterministic tie-break:
    among all minimum-hop paths we return the lexicographically smallest
    node sequence, which is also what a distributed computation with
    lowest-id preference would settle on. *)

open Arnet_topology

val distances : Graph.t -> src:int -> int array
(** [distances g ~src] gives hop counts from [src] to every node;
    [max_int] where unreachable. *)

val distances_to : Graph.t -> dst:int -> int array
(** Hop counts from every node to [dst] (follows links backwards). *)

val min_hop_path : Graph.t -> src:int -> dst:int -> Path.t option
(** The unique deterministic minimum-hop path, or [None] when [dst] is
    unreachable.  [src = dst] is rejected with [Invalid_argument]. *)

val eccentricity : Graph.t -> int -> int
(** Longest min-hop distance from a node to any reachable node. *)

val diameter : Graph.t -> int
(** Maximum eccentricity over nodes; [max_int]-free only when strongly
    connected, otherwise raises [Invalid_argument]. *)
