open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core

type cell = {
  scheme : string;
  blocking : Stats.summary;
  dropped : float;
  failovers : float;
}

type point = { rate : float; cells : cell list }

type result = point list

let default_rates = [ 0.; 0.005; 0.02; 0.05 ]

(* K4 at a load where Erlang losses are small, so what the sweep
   measures is the failure response, not congestion *)
let capacity = 100
let demand = 80.

let run ?(rates = default_rates) ?(mttr = 5.) ~config () =
  List.iter
    (fun r ->
      if not (Float.is_finite r) || r < 0. then
        invalid_arg "Failure_exp.run: rates must be finite and >= 0")
    rates;
  if mttr <= 0. then invalid_arg "Failure_exp.run: mttr <= 0";
  let { Config.seeds; duration; warmup } = config in
  let graph = Builders.full_mesh ~nodes:4 ~capacity in
  let matrix = Matrix.uniform ~nodes:4 ~demand in
  let routes = Route_table.build graph in
  let prot_routes = Route_table.protected graph in
  let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
  let prot_reserves =
    Protection.levels prot_routes matrix ~h:(Route_table.h prot_routes)
  in
  (* reservation level x alternate tier: Theorem-1 reserves vs r = 0,
     over length-ordered alternates vs the Suurballe disjoint mate *)
  let policies () =
    [ Scheme.controlled ~reserves routes;
      Scheme.uncontrolled routes;
      Scheme.protected ~reserves:prot_reserves prot_routes;
      Controller.compile ~name:"protected-r0" ~routes:prot_routes
        ~admission:
          (Admission.unprotected
             ~capacities:(Array.map (fun (l : Link.t) -> l.capacity)
                            (Graph.links graph)))
        ~allow_alternates:true () ]
  in
  let point rate =
    let script ~seed =
      if rate = 0. then Script.empty
      else
        Arnet_failure.Model.independent
          ~rng:(Rng.substream (Rng.create ~seed) "failure")
          ~duration ~mtbf:(1. /. rate) ~mttr graph
    in
    let by_policy =
      Engine.replicate_fresh ~warmup ~script ~seeds ~duration ~graph
        ~matrix ~policies ()
    in
    let mean f runs =
      float_of_int (List.fold_left (fun a r -> a + f r) 0 runs)
      /. float_of_int (List.length seeds)
    in
    let cells =
      List.map
        (fun (scheme, runs) ->
          { scheme;
            blocking = Stats.blocking_summary runs;
            dropped = mean (fun r -> r.Stats.dropped) runs;
            failovers = mean (fun r -> r.Stats.failovers) runs })
        by_policy
    in
    { rate; cells }
  in
  List.map point rates

let print ppf (r : result) =
  Report.note ppf
    (Printf.sprintf
       "K4, capacity %d, %g erlangs/pair: per-link failure rate sweep \
        (exponential repair)"
       capacity demand);
  match r with
  | [] -> ()
  | first :: _ ->
    let names = List.map (fun c -> c.scheme) first.cells in
    Report.note ppf "mean blocking:";
    Report.series_header ppf ~columns:("fail rate" :: names);
    List.iter
      (fun p ->
        Report.series_row ppf ~x:p.rate
          (List.map (fun c -> c.blocking.Stats.mean) p.cells))
      r;
    Report.note ppf "mean in-flight calls dropped per run:";
    Report.series_header ppf ~columns:("fail rate" :: names);
    List.iter
      (fun p ->
        Report.series_row ppf ~x:p.rate (List.map (fun c -> c.dropped) p.cells))
      r;
    Report.note ppf "mean failover admissions per run:";
    Report.series_header ppf ~columns:("fail rate" :: names);
    List.iter
      (fun p ->
        Report.series_row ppf ~x:p.rate
          (List.map (fun c -> c.failovers) p.cells))
      r
