(** Precomputed routing tables: one primary path plus ordered alternates
    per ordered O-D pair.

    This is the static product of the paper's two-tier design: the SI
    tier fixes the unique primary path; the SD tier will attempt the
    alternates in the stored order (increasing hop length, as computed in
    a distributed fashion by DALFAR [14] — here centralized but
    identical in result).  An alternate whose hop count exceeds [H] is
    excluded (Section 3.1); primaries are never length-capped
    (Section 3.2: "H has nothing to do with the length of primary
    paths").

    {b Layout.}  A table is one flat row per source, not one record per
    path.  Row [s] holds the link ids of every path stored from [s] end
    to end in one exact-size [int array], with int arrays for the path
    starts, each destination's candidate range (the loop-free paths of at
    most [h] hops, in attempt order) and the index of its primary.  A
    primary that is not a candidate — a min-hop walk longer than [h], or
    a custom policy's choice — is stored after every candidate range.
    A path's nodes are not stored: they are the source followed by each
    link's destination.

    {b Allocation.}  {!build} with the default primary, {!patch},
    {!equal}, {!has_route}, the folds and the table statistics read and
    write ints and construct no {!Path.t}.  {!primary},
    {!alternates}, {!alternate_array}, {!alternates_excluding} and
    {!all_paths} build fresh {!Path.t} values from the row on every
    call; per-call consumers take them once per pair at construction
    (the compiled plans of [Arnet_core.Controller] and [Scheme]). *)

open Arnet_topology

type t

val build :
  ?h:int ->
  ?primary:(src:int -> dst:int -> Path.t option) ->
  Graph.t -> t
(** [build ?h ?primary g] computes routes for every ordered pair.

    [h] is the maximum alternate hop length [H]; default: [node_count - 1]
    (unrestricted loop-free, the paper's "H = 11" case on NSFNet).
    [primary] overrides the default deterministic minimum-hop primary —
    use it for bifurcated or custom SI policies (alternates always exclude
    whatever primary path is in force at call time, see
    {!alternates_excluding}).

    With the default primary the construction is memoized: one DFS tree
    per source replaces the per-ordered-pair sweeps.  It is walked
    twice over out-link arrays built once per graph: the first walk
    counts the paths of each (destination, hops) slot, the second copies
    each prefix's link ids from the DFS stack into its slot.  Pre-order
    over ascending out-links is lexicographic within a slot, so the
    (hops, lex) candidate order needs no sort.  A pair's primary is its
    head candidate, which is the lexicographically smallest min-hop
    path; only pairs with no candidate within [h] walk a backward BFS
    (one per destination, shared by all sources, the walk of
    {!Bfs.min_hop_path}), written into the row directly.  The resulting
    table is identical — path for path, link id for link id — to the
    per-pair construction ({!build_reference}), including on one-node
    and disconnected graphs.  A custom [primary] builds through
    {!build_reference}, calling the closure in per-pair order.

    @raise Invalid_argument if [h < 1] or some pair has no primary path
    while the graph claims connectivity for it. *)

val build_reference :
  ?h:int ->
  ?primary:(src:int -> dst:int -> Path.t option) ->
  Graph.t -> t
(** The pre-memoization pipeline — one backward BFS and one bounded DFS
    per ordered pair, each pair's paths packed into the row layout.
    Kept as the differential-testing oracle of {!build}
    ([equal (build g) (build_reference g)] must always hold).  Quadratic
    BFS/DFS work: do not call it on large graphs. *)

val protected : ?weight:(Link.t -> float) -> Graph.t -> t
(** [protected g] is the protection-path table: per ordered pair, the
    Suurballe minimum-total-weight link-disjoint pair (default weight:
    hop count) — the shorter path is the primary and the mate is the
    single alternate, so any one link failure leaves the pair routable.
    A pair with no disjoint pair falls back to its minimum-hop path with
    no alternates (protection is impossible there, not the table's
    fault); a disconnected pair has no route.  [h] reports
    [node_count - 1], the bound disjoint mates respect by loop-freedom.
    @raise Invalid_argument when a weight is negative or non-finite. *)

(** {1 Topology changes}

    A link-level change reaches only the ordered pairs whose path sets
    it touches, and {!patch} counts the pairs it can affect.  It then
    builds the changed graph's table, so a patch costs about one
    {!build} however many pairs the link carries.  Only default-primary
    (min-hop) tables are patchable.  The canonical
    lexicographically-smallest min-hop primary depends on the pair's
    path set alone, which makes a removal's count exact. *)

type change =
  | Add_link of { src : int; dst : int; capacity : int }
      (** a directed link: a pair whose link has capacity 0 gets that
          link back, under its id, with the new capacity; any other
          pair gets a new link of id [link_count] *)
  | Remove_link of { src : int; dst : int }
      (** sets the directed link's capacity to 0.  The link keeps its
          id and its endpoints, but no path crosses it
          ({!Arnet_topology.Graph.create}), so no link id moves *)

val patch : t -> change list -> t * int
(** [patch t changes] applies the changes left to right and returns the
    table {!build} [~h:(h t)] makes of the final graph, plus the number
    of ordered pairs the changes can affect, each change counted
    against the table the previous one left.  A removal counts the
    pairs whose primary or some candidate holds the link: exactly the
    pairs it changes.  An addition [u -> v] counts the pairs [(s, d)]
    with [s] reaching [u] and [v] reaching [d] that had no route, or
    whose shortest path through the new link,
    [dist(s, u) + 1 + dist(v, d)] hops, fits under the larger of [h]
    and the primary's hops: a superset of the pairs it changes.  Each
    change builds once, so a list of [k] changes costs [k] builds.
    @raise Invalid_argument when the table was built with a custom
    primary or {!protected}, when a named pair has no link of positive
    capacity (remove) or has one already (add), or on bad node
    indices. *)

val equal : t -> t -> bool
(** Pair-wise equality by node sequences ({!Path.equal}): same [h],
    same primaries, candidates and alternate orders for every pair.
    Link-id numbering is deliberately ignored — two graphs may number
    the same links differently ({!Arnet_topology.Graph.without_links}
    renumbers) — so the rows' links are compared by their destination
    nodes, each in its own table's graph.  Allocates nothing. *)

val graph : t -> Graph.t
val h : t -> int

val primary : t -> src:int -> dst:int -> Path.t
(** @raise Invalid_argument when [src = dst] or no route exists. *)

val has_route : t -> src:int -> dst:int -> bool

val alternates : t -> src:int -> dst:int -> Path.t list
(** Loop-free paths of at most [h] hops, excluding the primary, in
    attempt order. *)

val alternates_excluding : t -> src:int -> dst:int -> Path.t -> Path.t list
(** Alternates when the pair's primary for this particular call is the
    given path (used with bifurcated primaries): all stored candidate
    paths minus that path.  When the excluded path is the table's own
    primary this is {!alternates}. *)

val alternate_array : t -> src:int -> dst:int -> Path.t array
(** {!alternates} as a fresh array, in attempt order (increasing hops):
    the form the compiled plans iterate index-wise.  Empty when the pair
    has no route. *)

val candidates : t -> src:int -> dst:int -> Path.t list
(** The pair's stored candidates in attempt order: its loop-free paths
    of at most [h] hops ({!protected}: the primary and its mate).  The
    primary is one of them unless it is longer than [h] or a custom
    choice outside them.  Empty when the pair has no route. *)

val all_paths : t -> src:int -> dst:int -> Path.t list
(** Primary-eligible plus alternate candidates: every loop-free path of at
    most [h] hops, plus the primary even if longer than [h]; sorted by
    increasing length. *)

val fold_primary_links :
  t -> src:int -> dst:int -> ('a -> int -> 'a) -> 'a -> 'a
(** [fold_primary_links t ~src ~dst f init] folds [f] over the link ids
    of the pair's primary, in path order; [init] when the pair has no
    route.  Reads the row and allocates nothing itself.
    @raise Invalid_argument on a bad node index. *)

val fold_alternate_links :
  t -> src:int -> dst:int -> ('a -> hops:int -> int -> 'a) -> 'a -> 'a
(** [fold_alternate_links t ~src ~dst f init] folds [f] over the link
    ids of each of the pair's {!alternates} in attempt order, passing
    the alternate's hop count with each; allocates nothing itself.
    @raise Invalid_argument on a bad node index. *)

val max_alternate_hops : t -> int
(** Longest alternate stored in the table — by construction [<= h]. *)

val alternate_count_stats : t -> min:int ref -> max:int ref -> float
(** Average alternate count over connected ordered pairs; also writes the
    min and max (the paper reports avg ~9, max 15, min 5 for NSFNet at
    H = 11). *)

val pp : Format.formatter -> t -> unit
