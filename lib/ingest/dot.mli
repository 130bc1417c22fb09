(** GraphViz dot reader and writer (no GraphViz dependency).

    The subset read is what network topologies need: an optionally
    [strict] [digraph]/[graph] with node statements, edge statements
    (chains allowed), attribute lists, quoted identifiers, and
    [//], [/* *\)] and [#] comments.  Subgraphs and ports are not
    supported.

    Semantics applied on import:
    - node names are renumbered densely in order of first appearance
      (node statements first, then edge endpoints);
    - a node's display label is its [label] attribute, defaulting to its
      dot name; coordinates come from [lon]/[lat] attributes;
    - an [a -> b] edge is one directed link; [a -- b] and
      [a -> b [dir=both]] produce both directions (this reads
      {!Arnet_topology.Graph.to_dot} output back);
    - edge capacity comes from [capacity], falling back to a numeric
      [label] (the {!Arnet_topology.Graph.to_dot} convention), else
      {!Gml.default_capacity};
    - repeated ordered endpoint pairs merge into one link with summed
      capacity, and self-loops are dropped, counted in
      {!Topo.t.merged_parallel} / {!Topo.t.dropped_self_loops};
    - [node]/[edge]/[graph] default-attribute statements and top-level
      [key=value] assignments are ignored. *)

exception Error of string
(** Malformed input; the message carries a line number. *)

val parse : string -> Topo.t
(** @raise Error on malformed input or a graph with no nodes. *)

val to_dot : Topo.t -> string
(** Canonical emission: a [digraph] with nodes [n0 .. n<n-1>] carrying
    [label] (and [lon]/[lat] when present) and one [a -> b [capacity=c]]
    edge per link in id order, so [parse (to_dot t)] equals [t] up to
    the cleanup counters ({!Topo.equal}) for every topology.
    @raise Invalid_argument if the name or a node label contains ['"']. *)

val load : string -> Topo.t
(** [load path] reads and parses a file.
    @raise Error on malformed content, [Sys_error] on IO failure. *)
