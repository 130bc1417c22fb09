open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core
open Arnet_mdp

type row = {
  load : float;
  optimal : float;
  single_path : float;
  uncontrolled : float;
  controlled : float;
  controlled_simulated : float;
  reserve : int;
}

(* the directed triangle: links 0->1, 1->2, 0->2; streams (0,1), (1,2)
   and (0,2), the last with alternate 0->1->2 *)
let triangle_graph capacity =
  Graph.create ~nodes:3
    [ Link.make ~id:0 ~src:0 ~dst:1 ~capacity;
      Link.make ~id:1 ~src:1 ~dst:2 ~capacity;
      Link.make ~id:2 ~src:0 ~dst:2 ~capacity ]

let run ?(capacity = 8) ?(loads = [ 4.; 5.; 6.; 7.; 8.; 9.; 10. ]) ~config
    () =
  let graph = triangle_graph capacity in
  let routes = Route_table.build graph in
  let { Config.seeds; duration; warmup } = config in
  let one load =
    let model =
      Loss_mdp.make
        ~capacities:(Array.make 3 capacity)
        ~arrivals:(Array.make 3 load)
        ~routes:[ (0, [ 0 ]); (1, [ 1 ]); (2, [ 2 ]); (2, [ 0; 1 ]) ]
    in
    let reserve = Protection.level ~offered:load ~capacity ~h:2 in
    let reserves = [| reserve; reserve; reserve |] in
    let matrix =
      Matrix.make ~nodes:3 (fun i j ->
          match (i, j) with 0, 1 | 1, 2 | 0, 2 -> load | _ -> 0.)
    in
    let sim =
      let results =
        Engine.replicate ~warmup ~seeds ~duration ~graph ~matrix
          ~policies:[ Scheme.controlled ~reserves routes ]
          ()
      in
      (Stats.blocking_summary (List.assoc "controlled" results)).Stats.mean
    in
    { load;
      optimal = Loss_mdp.optimal_blocking model;
      single_path =
        Loss_mdp.policy_blocking model (Loss_mdp.single_path_policy model);
      uncontrolled =
        Loss_mdp.policy_blocking model (Loss_mdp.uncontrolled_policy model);
      controlled =
        Loss_mdp.policy_blocking model
          (Loss_mdp.controlled_policy model ~reserves);
      controlled_simulated = sim;
      reserve }
  in
  List.map one loads

let print ppf rows =
  Report.series_header ppf
    ~columns:
      [ "erlangs"; "optimal"; "single-path"; "uncontrolled"; "controlled";
        "ctl-simulated"; "r" ];
  List.iter
    (fun r ->
      Report.series_row ppf ~x:r.load
        [ r.optimal; r.single_path; r.uncontrolled; r.controlled;
          r.controlled_simulated; float_of_int r.reserve ])
    rows
