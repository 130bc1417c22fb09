open Arnet_topology
open Arnet_paths
open Arnet_sim
open Arnet_core

type result = {
  target : float;
  single_path_scale : float;
  controlled_scale : float;
  single_path_capacity : int;
  controlled_capacity : int;
  savings : float;
  single_path_simulated : float;
  controlled_simulated : float;
}

let scaled_graph scale =
  let capacity = int_of_float (ceil (float_of_int Nsfnet.capacity *. scale)) in
  Graph.of_edges ~labels:Nsfnet.labels ~nodes:Nsfnet.node_count ~capacity
    Nsfnet.edges

let run ?(target = 0.01) ?(lo = 0.8) ?(hi = 2.0) ~config () =
  if target <= 0. || target >= 1. then
    invalid_arg "Dimensioning.run: bad target";
  if lo <= 0. || lo >= hi then invalid_arg "Dimensioning.run: bad range";
  let _, nominal = Internet.nominal () in
  (* analytic blocking at a capacity scale, for each discipline *)
  let blocking ~controlled scale =
    let g = scaled_graph scale in
    let routes = Route_table.build g in
    let capacities =
      Array.map (fun (l : Link.t) -> l.capacity) (Graph.links g)
    in
    let reserves =
      if controlled then
        Protection.levels routes nominal ~h:(Route_table.h routes)
      else capacities  (* full reservation = single-path *)
    in
    (Approximation.solve ~routes ~reserves nominal)
      .Approximation.network_blocking
  in
  let find ~controlled =
    if blocking ~controlled hi > target then
      invalid_arg "Dimensioning.run: target unreachable at hi";
    let lo = ref lo and hi = ref hi in
    (* bisect to the capacity-unit resolution (1/nominal capacity) *)
    let resolution = 0.5 /. float_of_int Nsfnet.capacity in
    while !hi -. !lo > resolution do
      let mid = (!lo +. !hi) /. 2. in
      if blocking ~controlled mid <= target then hi := mid else lo := mid
    done;
    !hi
  in
  (* validate (and where needed refine) endpoints by simulation *)
  let simulate ~controlled scale =
    let g = scaled_graph scale in
    let routes = Route_table.build g in
    let { Config.seeds; duration; warmup } = config in
    let policy =
      if controlled then Scheme.controlled_auto ~matrix:nominal routes
      else Scheme.single_path routes
    in
    let results =
      Engine.replicate ~warmup ~seeds ~duration ~graph:g ~matrix:nominal
        ~policies:[ policy ] ()
    in
    (Stats.blocking_summary (snd (List.hd results))).Stats.mean
  in
  (* the independence approximation can be optimistic near the knee:
     nudge the scale up until the simulated blocking meets the target
     (10% slack for seed noise) *)
  let refine ~controlled scale =
    let rec go scale b =
      if b <= target *. 1.1 || scale >= hi then (scale, b)
      else
        let scale = scale +. 0.02 in
        go scale (simulate ~controlled scale)
    in
    go scale (simulate ~controlled scale)
  in
  let single_path_scale, single_path_simulated =
    refine ~controlled:false (find ~controlled:false)
  in
  let controlled_scale, controlled_simulated =
    refine ~controlled:true (find ~controlled:true)
  in
  let total scale = Graph.total_capacity (scaled_graph scale) in
  let single_path_capacity = total single_path_scale in
  let controlled_capacity = total controlled_scale in
  { target;
    single_path_scale;
    controlled_scale;
    single_path_capacity;
    controlled_capacity;
    savings =
      1.
      -. float_of_int controlled_capacity
         /. float_of_int single_path_capacity;
    single_path_simulated;
    controlled_simulated }

let print ppf r =
  Report.note ppf
    (Printf.sprintf
       "grade-of-service target: %.1f%% network blocking at nominal load"
       (100. *. r.target));
  Report.note ppf
    (Printf.sprintf
       "single-path needs capacity scale %.3f (%d units); simulated \
        blocking there: %.4f"
       r.single_path_scale r.single_path_capacity r.single_path_simulated);
  Report.note ppf
    (Printf.sprintf
       "controlled   needs capacity scale %.3f (%d units); simulated \
        blocking there: %.4f"
       r.controlled_scale r.controlled_capacity r.controlled_simulated);
  Report.note ppf
    (Printf.sprintf
       "controlled alternate routing saves %.1f%% of transmission capacity"
       (100. *. r.savings))
