(** Directed graphs of capacitated links.

    This is the network substrate for the whole library: nodes are dense
    integers [0 .. node_count-1], links are dense integers
    [0 .. link_count-1].  Graphs are immutable once built; link failures
    (Section 4.2.2 of the paper) are modeled by {!without_links}, which
    produces a new graph preserving node identities but renumbering links
    ({!Link.t.id} values change; use {!find_link} to re-locate a link by
    its endpoints). *)

type t

(** {1 Construction} *)

val create : ?labels:string array -> nodes:int -> Link.t list -> t
(** [create ~nodes links] builds a graph over nodes [0 .. nodes-1].  Link
    ids must be exactly [0 .. List.length links - 1] (in any order);
    endpoints must be valid node indices.  At most one link per ordered
    node pair. [labels], when given, must have length [nodes].  A link
    of capacity 0 keeps its id, endpoints and {!find_link} entry, but
    {!out_links} and {!in_links} leave it out, so no path walk crosses
    it: a route table patch removes a link by setting its capacity to
    0, so that no id moves.
    @raise Invalid_argument on any violation. *)

val of_edges : ?labels:string array -> nodes:int -> capacity:int ->
  (int * int) list -> t
(** [of_edges ~nodes ~capacity pairs] builds a graph with a pair of
    opposite unidirectional links of the given capacity for every
    undirected edge in [pairs].  Duplicate pairs (in either order) are
    rejected. Link ids are assigned in the order given: edge [i] yields
    links [2i] (forward) and [2i+1] (backward). *)

val without_links : t -> (int * int) list -> t
(** [without_links g pairs] removes the directed links whose [(src, dst)]
    appear in [pairs].  Removing both directions of an edge takes two
    pairs.  Unknown pairs raise [Invalid_argument]. *)

val with_capacities : t -> (int * int * int) list -> t
(** [with_capacities g [(src, dst, c); ...]] returns a copy where each
    named directed link has its capacity replaced by [c]. *)

(** {1 Queries} *)

val node_count : t -> int
val link_count : t -> int
val label : t -> int -> string
(** [label g v] is the display label of node [v] (defaults to
    [string_of_int v]). *)

val link : t -> int -> Link.t
(** [link g i] is the link with id [i]. @raise Invalid_argument if out of
    range. *)

val links : t -> Link.t array
(** All links, indexed by id.  The returned array is fresh. *)

val find_link : t -> src:int -> dst:int -> Link.t option
(** Locate a link by its endpoints. *)

val find_link_exn : t -> src:int -> dst:int -> Link.t
(** @raise Not_found when absent. *)

val out_links : t -> int -> Link.t list
(** [out_links g v] are the links leaving node [v] with a positive
    capacity, sorted by destination. *)

val in_links : t -> int -> Link.t list
(** [in_links g v] are the links entering node [v] with a positive
    capacity, sorted by source. *)

val successors : t -> int -> int list
(** [successors g v] are the heads of {!out_links}[ g v], ascending. *)

val degree_out : t -> int -> int
val degree_in : t -> int -> int

val is_symmetric : t -> bool
(** [true] when every link has an opposite-direction twin of the same
    capacity. *)

val is_strongly_connected : t -> bool

val total_capacity : t -> int
(** Sum of all link capacities. *)

val fold_links : (Link.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter_links : (Link.t -> unit) -> t -> unit

val pp : Format.formatter -> t -> unit
(** One line per link, for debugging and the fig5 dump. *)

val to_dot : t -> string
(** Graphviz rendering (pairs of opposite links collapse to one
    undirected edge when capacities match). *)
