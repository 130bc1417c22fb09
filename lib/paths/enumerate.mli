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

val count_simple_paths : ?max_hops:int -> Graph.t -> src:int -> dst:int -> int
(** Path count without materializing paths. *)

val path_census :
  ?max_hops:int -> Graph.t -> (int * int * int) list
(** For every ordered pair, [(src, dst, simple-path count)].  Used to
    check the paper's "about 9 alternate paths on average, max 15, min 5"
    observation. *)
