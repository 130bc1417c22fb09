(** An imported topology: a {!Arnet_topology.Graph.t} plus the metadata
    real topology files carry that the core graph type does not — a
    network name, optional per-node geographic coordinates, and counters
    describing what the importer had to clean up (parallel edges merged,
    self-loop edges dropped) so that [arn lint] can report on the raw
    file rather than on the already-sanitised graph. *)

open Arnet_topology

type t = private {
  name : string;  (** network name from the source file *)
  graph : Graph.t;
  coords : (float * float) option array;
      (** per node, [(longitude, latitude)] (or any planar [(x, y)]);
          length is always [Graph.node_count graph] *)
  merged_parallel : int;
      (** parallel edges the importer merged into one link (capacities
          summed) — [0] for generated or exported topologies *)
  dropped_self_loops : int;
      (** self-loop edges the importer discarded *)
}

val make :
  ?name:string ->
  ?coords:(float * float) option array ->
  ?merged_parallel:int ->
  ?dropped_self_loops:int ->
  Graph.t ->
  t
(** [make g] wraps a graph.  [name] defaults to ["topology"]; [coords]
    defaults to all-[None] and must otherwise have one slot per node and
    contain only finite floats.
    @raise Invalid_argument on length or finiteness violations. *)

val equal : t -> t -> bool
(** Structural equality: name, node labels, links (ids, endpoints,
    capacities) and coordinates.  The cleanup counters are metadata
    about an import, not about the topology, and are ignored — this is
    the equality the codec round-trip laws are stated in. *)

val normalized_coords : t -> (float * float) array option
(** Coordinates min-max scaled into the unit square, for the regional
    failure model's planar node positions.  [None] unless every node has
    coordinates; a degenerate axis (all nodes at one longitude or
    latitude) maps to [0.5]. *)

(** {1 Stats} *)

type summary = {
  nodes : int;
  links : int;
  total_capacity : int;
  min_capacity : int;  (** 0 when there are no links *)
  max_capacity : int;
  degree_min : int;  (** out-degree extremes over nodes *)
  degree_max : int;
  degree_mean : float;
  symmetric : bool;
  strongly_connected : bool;
  with_coords : int;  (** nodes carrying coordinates *)
}

val summarize : t -> summary
val pp_summary : name:string -> Format.formatter -> summary -> unit
(** The [arn topo stats] rendering: one [key value] line per field. *)
