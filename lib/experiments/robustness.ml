open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core

type misestimation_point = {
  factor : float;
  blocking : Stats.summary;
}

let misestimation ?(scale = 1.2) ?(factors = [ 0.5; 0.7; 1.0; 1.3; 1.7; 2.0 ])
    ~config () =
  let routes, nominal = Internet.nominal () in
  let graph = Route_table.graph routes in
  let matrix = Matrix.scale nominal scale in
  let capacities =
    Array.map (fun (l : Link.t) -> l.capacity) (Graph.links graph)
  in
  let true_loads = Loads.primary_link_loads routes matrix in
  let h = Route_table.h routes in
  let policy_for factor =
    let loads = Array.map (fun l -> l *. factor) true_loads in
    let reserves = Protection.levels_of_loads ~capacities ~loads ~h in
    { (Scheme.controlled ~reserves routes) with
      Engine.name = Printf.sprintf "controlled@%.1fx" factor }
  in
  let policies =
    Scheme.single_path routes :: List.map policy_for factors
  in
  let { Config.seeds; duration; warmup } = config in
  let results =
    Engine.replicate ~warmup ~seeds ~duration ~graph ~matrix ~policies ()
  in
  let summary name = Stats.blocking_summary (List.assoc name results) in
  let points =
    List.map
      (fun factor ->
        { factor;
          blocking = summary (Printf.sprintf "controlled@%.1fx" factor) })
      factors
  in
  (points, summary "single-path")

let print_misestimation ppf (points, single) =
  Report.series_header ppf ~columns:[ "est-factor"; "blocking"; "stderr" ];
  List.iter
    (fun p ->
      Report.series_row ppf ~x:p.factor
        [ p.blocking.Stats.mean; p.blocking.Stats.std_error ])
    points;
  Report.note ppf
    (Printf.sprintf "single-path reference on the same traces: %.4f"
       single.Stats.mean)

type adaptive_result = { schemes : (string * Stats.summary) list }

let adaptive ?(scale = 1.0) ~config () =
  let routes, nominal = Internet.nominal () in
  let graph = Route_table.graph routes in
  let matrix = Matrix.scale nominal scale in
  let make_policies () =
    [ Scheme.single_path routes;
      Scheme.controlled_auto ~matrix routes;
      Scheme.controlled_adaptive routes ]
  in
  let { Config.seeds; duration; warmup } = config in
  let results =
    Engine.replicate_fresh ~warmup ~seeds ~duration ~graph ~matrix
      ~policies:make_policies ()
  in
  { schemes =
      List.map
        (fun (name, runs) -> (name, Stats.blocking_summary runs))
        results }

let print_adaptive ppf r =
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "  %-22s blocking %.4f +/- %.4f@." name
        s.Stats.mean s.Stats.std_error)
    r.schemes
