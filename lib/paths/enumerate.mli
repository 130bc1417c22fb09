(** Exhaustive enumeration of loop-free paths.

    The alternate-path sets of the paper are "all non-looping paths",
    optionally capped at [H] hops (the design parameter of Section 3.1),
    attempted in order of increasing length.  Networks of interest are
    small and sparse (the NSFNet model averages about 10 simple paths per
    pair), so exhaustive DFS enumeration is both exact and fast. *)

open Arnet_topology

val simple_paths : ?max_hops:int -> Graph.t -> src:int -> dst:int -> Path.t list
(** All loop-free paths from [src] to [dst] with at most [max_hops] links
    (default: no bound beyond loop-freedom, i.e. [node_count - 1]),
    sorted by {!Path.compare_by_length}.
    @raise Invalid_argument if [src = dst] or indices are bad. *)

val paths_from : ?max_hops:int -> Graph.t -> src:int -> Path.t list array
(** One whole route-table row at once: slot [dst] holds exactly
    [simple_paths ?max_hops g ~src ~dst], link ids included (slot [src]
    is empty).  A single shared DFS tree replaces [n - 1] per-pair trees
    that would each re-explore almost the same prefixes, which is what
    makes route-table construction tractable at 1000+ nodes.  The DFS
    walks out-links and pushes each link id on a stack beside the node
    stack, so no prefix looks a link up.  Its pre-order over ascending
    destinations visits each slot's paths in lexicographic order; a
    stable sort by hop count then gives the {!Path.compare_by_length}
    order without comparing node sequences.  On a one-node graph the
    row is empty.
    @raise Invalid_argument on a bad index or a given [max_hops < 1]. *)

val count_simple_paths : ?max_hops:int -> Graph.t -> src:int -> dst:int -> int
(** Path count without materializing paths. *)

val path_census :
  ?max_hops:int -> Graph.t -> (int * int * int) list
(** For every ordered pair, [(src, dst, simple-path count)].  Used to
    check the paper's "about 9 alternate paths on average, max 15, min 5"
    observation. *)
