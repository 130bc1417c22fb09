(** Topology-Zoo-style GML reader and writer.

    The dialect is the subset the Topology Zoo dataset uses: a top-level
    [graph [ ... ]] block holding [node [ id label Longitude Latitude ]]
    and [edge [ source target ... ]] sub-blocks, with [#] comments and
    quoted strings.  Everything else is tolerated and ignored.

    Semantics applied on import:
    - node ids may be arbitrary integers; they are renumbered densely in
      order of first appearance;
    - node display labels come from [label] (default ["n<id>"]);
    - coordinates come from [Longitude]/[Latitude], falling back to
      [graphics [ x y ]];
    - edge capacity comes from the first of [capacity], [bandwidth],
      [LinkSpeed] that parses as a number, rounded to the nearest
      integer; edges with none default to capacity {!default_capacity};
    - unless the file says [directed 1], each edge becomes a pair of
      opposite unidirectional links (edge [i] gets ids [2i], [2i+1]),
      matching {!Arnet_topology.Graph.of_edges};
    - parallel edges (same endpoints; same unordered pair when
      undirected) are merged into one link with summed capacity, and
      self-loop edges are dropped — both counted in the result's
      {!Topo.t.merged_parallel} and {!Topo.t.dropped_self_loops}. *)

exception Error of string
(** Malformed input; the message carries a line number. *)

val default_capacity : int
(** Capacity (calls) given to edges with no recognised bandwidth
    attribute: 100, the paper's fully-connected-network link size. *)

val parse : string -> Topo.t
(** @raise Error on malformed input or a graph with no nodes. *)

val to_gml : Topo.t -> string
(** Canonical emission: a [directed 1] graph with one [edge] block per
    link in id order, so [parse (to_gml t)] equals [t] up to the cleanup
    counters ({!Topo.equal}) for every topology.
    @raise Invalid_argument if the name or a node label contains ['"']. *)

val load : string -> Topo.t
(** [load path] reads and parses a file.
    @raise Error on malformed content, [Sys_error] on IO failure. *)
