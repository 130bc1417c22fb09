open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_erlang
open Arnet_sim
open Arnet_core

(* the capacity units a call takes: narrowband (class 0) and wideband
   (class 1) *)
let bandwidths = [| 1; 6 |]

(* one trace per seed from the multi-rate substream, both classes of
   unit mean holding time, replayed through every named policy *)
let replicate ~warmup ~seeds ~duration ~graph ~narrow ~wide named =
  let policy = Array.of_list (List.map snd named) in
  Engine.replicate_grid ~caller:"Multirate_exp.run" ~seeds
    ~names:(List.map fst named)
    ~context:(fun seed ->
      let rng = Rng.substream (Rng.create ~seed) "mr-trace" in
      Trace.generate_classes ~rng ~duration ~bandwidths
        ~mean_holdings:[| 1.; 1. |] [| narrow; wide |])
    ~run:(fun trace pi -> Engine.run ~warmup ~graph ~policy:policy.(pi) trace)
    ()

let kaufman_roberts_check ?(capacity = 50) ?(seeds = [ 1; 2; 3; 4; 5 ]) () =
  let g =
    Graph.create ~nodes:2 [ Link.make ~id:0 ~src:0 ~dst:1 ~capacity ]
  in
  let routes = Route_table.build g in
  let narrow_load = 0.6 *. float_of_int capacity in
  let narrow = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then narrow_load else 0.) in
  let wide = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then narrow_load /. 12. else 0.) in
  let analytic =
    Kaufman_roberts.class_blocking ~capacity
      [ { Kaufman_roberts.offered = narrow_load; bandwidth = bandwidths.(0) };
        { Kaufman_roberts.offered = narrow_load /. 12.;
          bandwidth = bandwidths.(1) } ]
  in
  let results =
    replicate ~warmup:10. ~seeds ~duration:210. ~graph:g ~narrow ~wide
      [ ("mr-single-path", Scheme.single_path routes) ]
  in
  let runs = List.assoc "mr-single-path" results in
  let simulated ci =
    let values = List.map (fun s -> Stats.class_blocking s ci) runs in
    (Stats.summarize values).Stats.mean
  in
  List.mapi (fun ci a -> (a, simulated ci)) analytic

type point = {
  load : float;
  schemes : (string * float) list;
  narrowband_controlled : float;
  wideband_controlled : float;
}

let run ?(loads = [ 50.; 65.; 80.; 90. ]) ~config () =
  let graph = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Route_table.build graph in
  let { Config.seeds; duration; warmup } = config in
  let one load =
    let narrow = Matrix.uniform ~nodes:4 ~demand:load in
    let wide = Matrix.uniform ~nodes:4 ~demand:(load /. 12.) in
    (* protection levels from Equation 1 on the offered bandwidth, in
       units of capacity: each class's matrix weighted by its bandwidth *)
    let weigh m ci = Matrix.scale m (float_of_int bandwidths.(ci)) in
    let matrix = Matrix.add (weigh narrow 0) (weigh wide 1) in
    (* the two-tier policies read each call's bandwidth from the trace,
       so the paper's schemes run multi-rate unchanged *)
    let policies =
      [ ("mr-single-path", Scheme.single_path routes);
        ("mr-uncontrolled", Scheme.uncontrolled routes);
        ("mr-controlled", Scheme.controlled_auto ~matrix routes) ]
    in
    let results =
      replicate ~warmup ~seeds ~duration ~graph ~narrow ~wide policies
    in
    let mean_of f runs =
      (Stats.summarize (List.map f runs)).Stats.mean
    in
    let ctl_runs = List.assoc "mr-controlled" results in
    { load;
      schemes =
        List.map
          (fun (name, runs) -> (name, mean_of Stats.bandwidth_blocking runs))
          results;
      narrowband_controlled =
        mean_of (fun s -> Stats.class_blocking s 0) ctl_runs;
      wideband_controlled =
        mean_of (fun s -> Stats.class_blocking s 1) ctl_runs }
  in
  List.map one loads

let print ppf (kr, points) =
  Report.note ppf
    "Kaufman-Roberts validation on an isolated link (analytic vs simulated):";
  List.iteri
    (fun ci (a, s) ->
      Report.note ppf
        (Printf.sprintf "  class %d: analytic %.4f  simulated %.4f" ci a s))
    kr;
  Report.note ppf
    "quadrangle, narrowband (1 unit) + wideband (6 units), bandwidth blocking:";
  (match points with
  | [] -> ()
  | p :: _ ->
    Report.series_header ppf
      ~columns:
        ("nb-erlangs"
        :: (List.map fst p.schemes @ [ "ctl-narrow"; "ctl-wide" ])));
  List.iter
    (fun p ->
      Report.series_row ppf ~x:p.load
        (List.map snd p.schemes
        @ [ p.narrowband_controlled; p.wideband_controlled ]))
    points
