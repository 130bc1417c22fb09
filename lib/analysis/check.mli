(** Named static-analysis passes over a routing configuration, and
    the configuration they read.  {!Lint.checks} lists the built-in
    ones.

    A configuration bundles everything the simulator consumes — the
    topology, the two-tier route table, the traffic matrix and the
    per-link protection levels — plus the optional per-link primary
    loads a deployment might declare instead of deriving them from the
    matrix (Equation 1).  Individual checks tolerate missing pieces:
    a check that needs the matrix reports nothing when no matrix is
    given. *)

open Arnet_topology
open Arnet_paths
open Arnet_traffic

type import = {
  coords : (float * float) option array;
      (** per-node [(longitude, latitude)]; length = node count *)
  merged_parallel : int;  (** parallel edges the importer merged *)
  dropped_self_loops : int;  (** self-loop edges the importer dropped *)
}
(** What a topology importer saw in the raw file before sanitising it —
    {!Ingest_check} reports on this, since the merged graph alone can no
    longer show it.  Mirrors the metadata of [Arnet_ingest.Topo.t]
    (kept structural here so analysis does not depend on the ingest
    library). *)

type config = {
  graph : Graph.t;
  routes : Route_table.t option;
  matrix : Matrix.t option;
  reserves : int array option;  (** protection level [r^k] per link id *)
  loads : float array option;
      (** declared primary load [Lambda^k] per link id; when absent,
          checks derive loads from [routes] and [matrix] by Equation 1 *)
  import : import option;
      (** importer metadata; [None] for programmatically built graphs,
          which silences the import checks *)
  regional : bool;
      (** the deployment intends to drive the regional failure model,
          so missing coordinates escalate from info to error *)
}

val config :
  ?routes:Route_table.t ->
  ?matrix:Matrix.t ->
  ?reserves:int array ->
  ?loads:float array ->
  ?import:import ->
  ?regional:bool ->
  Graph.t ->
  config
(** [regional] defaults to [false].
    @raise Invalid_argument when [import] coordinates do not have one
    slot per node. *)

val effective_loads : config -> float array option
(** The declared [loads] when present, otherwise
    [Loads.primary_link_loads routes matrix] when both are available. *)

type t = {
  name : string;  (** short identifier, e.g. ["topology"] *)
  describe : string;  (** one-line summary for [--list] *)
  codes : (string * string) list;
      (** every diagnostic code the check can emit, with a one-line
          meaning — the source of truth behind [arn lint --list], so
          the documented table cannot drift from the checks *)
  run : config -> Diagnostic.t list;
}

val make :
  ?codes:(string * string) list ->
  name:string ->
  describe:string ->
  (config -> Diagnostic.t list) ->
  t
