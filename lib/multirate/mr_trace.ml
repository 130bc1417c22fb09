open Arnet_traffic
open Arnet_sim

type workload = { classes : Call_class.t array; demands : Matrix.t array }

let workload bindings =
  if bindings = [] then invalid_arg "Mr_trace.workload: no classes";
  let classes = Array.of_list (List.map fst bindings) in
  let demands = Array.of_list (List.map snd bindings) in
  let n = Matrix.nodes demands.(0) in
  Array.iter
    (fun m ->
      if Matrix.nodes m <> n then
        invalid_arg "Mr_trace.workload: matrix size mismatch")
    demands;
  { classes; demands }

let nodes w = Matrix.nodes w.demands.(0)

let offered_bandwidth w =
  let acc = ref 0. in
  Array.iteri
    (fun i (c : Call_class.t) ->
      acc := !acc +. (float_of_int c.Call_class.bandwidth *. Matrix.total w.demands.(i)))
    w.classes;
  !acc

let bandwidths w =
  Array.map (fun (c : Call_class.t) -> c.Call_class.bandwidth) w.classes

let of_calls w ~duration calls =
  let matrix =
    Array.fold_left Matrix.add w.demands.(0)
      (Array.sub w.demands 1 (Array.length w.demands - 1))
  in
  Trace.of_class_calls ~matrix ~duration ~bandwidths:(bandwidths w) calls

let generate ~rng ~duration w =
  Trace.generate_classes ~rng ~duration ~bandwidths:(bandwidths w)
    ~mean_holdings:
      (Array.map
         (fun (c : Call_class.t) -> c.Call_class.mean_holding)
         w.classes)
    w.demands
