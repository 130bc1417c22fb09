open Arnet_topology
open Arnet_paths

let primary_link_loads routes t =
  let g = Route_table.graph routes in
  if Graph.node_count g <> Matrix.nodes t then
    invalid_arg "Loads.primary_link_loads: size mismatch";
  let loads = Array.make (Graph.link_count g) 0. in
  (* the demand rides the fold as its accumulator, so no closure is
     built per pair *)
  let add d k =
    loads.(k) <- loads.(k) +. d;
    d
  in
  Matrix.iter_demands t (fun i j d ->
      ignore (Route_table.fold_primary_links routes ~src:i ~dst:j add d));
  loads

let link_load_error ~target got =
  if Array.length target <> Array.length got then
    invalid_arg "Loads.link_load_error: length mismatch";
  let err = ref 0. in
  Array.iteri
    (fun k t ->
      let scale = Float.max t 1. in
      err := Float.max !err (Float.abs (got.(k) -. t) /. scale))
    target;
  !err

let offered_to_pair_paths routes t =
  let acc = ref [] in
  Matrix.iter_demands t (fun i j d ->
      if Route_table.has_route routes ~src:i ~dst:j then begin
        let links =
          Route_table.fold_primary_links routes ~src:i ~dst:j
            (fun ids k -> k :: ids) []
        in
        acc :=
          { Arnet_erlang.Reduced_load.offered = d; links = List.rev links }
          :: !acc
      end);
  List.rev !acc
