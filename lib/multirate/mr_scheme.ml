open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_core

let bandwidth_loads routes workload =
  let g = Route_table.graph routes in
  let loads = Array.make (Graph.link_count g) 0. in
  let add x k =
    loads.(k) <- loads.(k) +. x;
    x
  in
  Array.iteri
    (fun ci matrix ->
      let b =
        float_of_int workload.Mr_trace.classes.(ci).Call_class.bandwidth
      in
      Matrix.iter_demands matrix (fun src dst d ->
          ignore (Route_table.fold_primary_links routes ~src ~dst add (b *. d))))
    workload.Mr_trace.demands;
  loads

let capacities_of routes =
  let g = Route_table.graph routes in
  Array.map (fun (l : Link.t) -> l.capacity) (Graph.links g)

let protection_levels routes workload ~h =
  let capacities = capacities_of routes in
  let loads = bandwidth_loads routes workload in
  Protection.levels_of_loads ~capacities ~loads ~h

(* the compiled two-tier policy reads each call's bandwidth from the
   trace, so the paper's schemes run multi-rate unchanged *)
let renamed name (policy : Arnet_sim.Engine.policy) =
  { policy with Arnet_sim.Engine.name }

let single_path routes = renamed "mr-single-path" (Scheme.single_path routes)
let uncontrolled routes = renamed "mr-uncontrolled" (Scheme.uncontrolled routes)

let controlled ~reserves routes =
  renamed "mr-controlled" (Scheme.controlled ~reserves routes)

let controlled_auto ?h routes workload =
  let h = match h with None -> Route_table.h routes | Some h -> h in
  controlled ~reserves:(protection_levels routes workload ~h) routes
