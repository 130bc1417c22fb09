open Arnet_erlang
open Arnet_paths
open Arnet_traffic

let bound ~offered ~capacity ~reserve =
  Erlang_b.blocking_ratio ~offered ~capacity ~reserve

let level ~offered ~capacity ~h =
  if h < 1 then invalid_arg "Protection.level: h < 1";
  if capacity < 1 then invalid_arg "Protection.level: capacity < 1";
  let target = 1. /. float_of_int h in
  (* B(a,c)/B(a,c-r) = y_{c-r}/y_c is nonincreasing in r: binary search
     would do, but c is small and the log table gives all values at
     once. *)
  let ly = Erlang_b.log_inverse_table ~offered ~capacity in
  let log_target = log target in
  let rec search r =
    if r > capacity then capacity
    else if ly.(capacity - r) -. ly.(capacity) <= log_target then r
    else search (r + 1)
  in
  search 0

let link_level ~offered ~capacity ~h =
  if offered <= 0. || capacity = 0 then 0 else level ~offered ~capacity ~h

let levels_of_loads ~capacities ~loads ~h =
  if Array.length capacities <> Array.length loads then
    invalid_arg "Protection.levels_of_loads: length mismatch";
  Array.mapi
    (fun k c -> link_level ~offered:loads.(k) ~capacity:c ~h)
    capacities

let levels routes matrix ~h =
  let g = Route_table.graph routes in
  let loads = Loads.primary_link_loads routes matrix in
  let capacities =
    Array.map (fun (l : Arnet_topology.Link.t) -> l.capacity)
      (Arnet_topology.Graph.links g)
  in
  levels_of_loads ~capacities ~loads ~h

let sweep ~capacity ~h ~loads =
  List.map (fun offered -> (offered, level ~offered ~capacity ~h)) loads

let per_link_h routes =
  let g = Route_table.graph routes in
  let n = Arnet_topology.Graph.node_count g in
  let hs = Array.make (Arnet_topology.Graph.link_count g) 1 in
  let longest () ~hops k = if hops > hs.(k) then hs.(k) <- hops in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        Route_table.fold_alternate_links routes ~src ~dst longest ()
    done
  done;
  hs

let levels_per_link_h routes matrix =
  let g = Route_table.graph routes in
  let loads = Loads.primary_link_loads routes matrix in
  let capacities =
    Array.map (fun (l : Arnet_topology.Link.t) -> l.capacity)
      (Arnet_topology.Graph.links g)
  in
  let hs = per_link_h routes in
  Array.mapi
    (fun k c -> link_level ~offered:loads.(k) ~capacity:c ~h:hs.(k))
    capacities

let path_guarantee ~capacities ~loads ~reserves ~link_ids =
  List.fold_left
    (fun acc k ->
      if loads.(k) <= 0. then acc
      else
        acc
        +. bound ~offered:loads.(k) ~capacity:capacities.(k)
             ~reserve:reserves.(k))
    0. link_ids
