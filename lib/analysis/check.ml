open Arnet_topology
open Arnet_paths
open Arnet_traffic

type import = {
  coords : (float * float) option array;
  merged_parallel : int;
  dropped_self_loops : int;
}

type config = {
  graph : Graph.t;
  routes : Route_table.t option;
  matrix : Matrix.t option;
  reserves : int array option;
  loads : float array option;
  import : import option;
  regional : bool;
}

let config ?routes ?matrix ?reserves ?loads ?import ?(regional = false) graph =
  (match import with
  | Some i when Array.length i.coords <> Graph.node_count graph ->
    invalid_arg "Check.config: import coords length <> node count"
  | _ -> ());
  { graph; routes; matrix; reserves; loads; import; regional }

let effective_loads c =
  match c.loads with
  | Some _ as l -> l
  | None -> (
    match (c.routes, c.matrix) with
    | Some routes, Some matrix
      when Matrix.nodes matrix = Graph.node_count c.graph ->
      Some (Loads.primary_link_loads routes matrix)
    | _ -> None)

type t = {
  name : string;
  describe : string;
  codes : (string * string) list;
  run : config -> Diagnostic.t list;
}

let make ?(codes = []) ~name ~describe run = { name; describe; codes; run }
