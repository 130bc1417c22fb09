open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core

type row = {
  seed : int;
  nodes : int;
  links : int;
  diameter : int;
  peak_utilization : float;
  single_path : float;
  uncontrolled : float;
  controlled : float;
  guarantee_ok : bool;
}

let run ?(topology_seeds = [ 11; 22; 33; 44; 55; 66 ]) ?(nodes = 10)
    ?(capacity = 50) ?(target_utilization = 1.6) ~config () =
  if target_utilization <= 0. then
    invalid_arg "Random_mesh.run: bad target utilization";
  let { Config.seeds; duration; warmup } = config in
  let one seed =
    let graph = Builders.waxman ~seed ~nodes ~capacity () in
    let routes = Route_table.build graph in
    let base = Gravity.degree_weighted graph ~total:100. in
    let loads = Loads.primary_link_loads routes base in
    let peak = Array.fold_left Float.max 0. loads in
    let scale = target_utilization *. float_of_int capacity /. peak in
    let matrix = Matrix.scale base scale in
    let results =
      Engine.replicate ~warmup ~seeds ~duration ~graph ~matrix
        ~policies:
          [ Scheme.single_path routes;
            Scheme.uncontrolled routes;
            Scheme.controlled_auto ~matrix routes ]
        ()
    in
    let mean name =
      (Stats.blocking_summary (List.assoc name results)).Stats.mean
    in
    let stderr name =
      (Stats.blocking_summary (List.assoc name results)).Stats.std_error
    in
    let single_path = mean "single-path"
    and controlled = mean "controlled" in
    { seed;
      nodes = Graph.node_count graph;
      links = Graph.link_count graph;
      diameter = Bfs.diameter graph;
      peak_utilization = target_utilization;
      single_path;
      uncontrolled = mean "uncontrolled";
      controlled;
      guarantee_ok =
        controlled
        <= single_path
           +. (3. *. (stderr "controlled" +. stderr "single-path"))
           +. 0.005 }
  in
  List.map one topology_seeds

let print ppf rows =
  Format.fprintf ppf "  %6s %5s %5s %8s %12s %13s %11s %10s@." "seed" "nodes"
    "links" "diameter" "single-path" "uncontrolled" "controlled" "guarantee";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %6d %5d %5d %8d %12.4f %13.4f %11.4f %10s@."
        r.seed r.nodes r.links r.diameter r.single_path r.uncontrolled
        r.controlled
        (if r.guarantee_ok then "holds" else "VIOLATED"))
    rows
