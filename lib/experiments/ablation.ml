open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core

let h_sweep ?(scales = [ 0.8; 1.0; 1.2 ]) ?(hs = [ 2; 4; 6; 8; 11 ])
    ~config () =
  let _, nominal = Internet.nominal () in
  let graph = Arnet_topology.Nsfnet.graph () in
  let { Config.seeds; duration; warmup } = config in
  let one_h h =
    let routes = Route_table.build ~h graph in
    let per_scale scale =
      let matrix = Matrix.scale nominal scale in
      let results =
        Engine.replicate ~warmup ~seeds ~duration ~graph ~matrix
          ~policies:[ Scheme.controlled_auto ~matrix routes ]
          ()
      in
      (scale, Stats.blocking_summary (List.assoc "controlled" results))
    in
    (h, List.map per_scale scales)
  in
  List.map one_h hs

let print_h_sweep ppf rows =
  let scales = match rows with [] -> [] | (_, pts) :: _ -> List.map fst pts in
  Report.series_header ppf
    ~columns:("H" :: List.map (Printf.sprintf "load %.1fx") scales);
  List.iter
    (fun (h, pts) ->
      Report.series_row_s ppf ~x:(string_of_int h)
        (List.map (fun (_, s) -> s.Stats.mean) pts))
    rows

let variants ?(scales = [ 0.8; 1.0; 1.2; 1.4 ]) ~config () =
  let routes, nominal = Internet.nominal () in
  let graph = Route_table.graph routes in
  let matrix_of scale = Matrix.scale nominal scale in
  let policies_of matrix =
    let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
    [ Scheme.controlled ~reserves routes;
      Scheme.controlled_per_link_h ~matrix routes;
      { (Scheme.least_busy ~reserves routes) with
        Engine.name = "least-busy-protected" };
      Scheme.controlled_length_aware ~matrix routes;
      Scheme.uncontrolled routes;
      { (Scheme.least_busy routes) with Engine.name = "least-busy-free" };
      Scheme.ott_krishnan ~matrix routes;
      Scheme.ott_krishnan ~reduced_load:true ~matrix routes ]
  in
  Sweep.run ~config ~graph ~matrix_of ~policies_of ~xs:scales

let print_variants ppf points = Sweep.print ~x_label:"load-scale" ppf points
