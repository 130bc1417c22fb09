open Arnet_topology
open Arnet_paths

type result = {
  matrix : Matrix.t;
  achieved : float array;
  max_relative_error : float;
  iterations : int;
}

(* Largest single-step multiplicative correction; keeps the iteration
   stable when a link's current load is far from (or at) zero. *)
let ratio_cap = 8.

let to_link_loads ?seed ?(tolerance = 1e-6) ?(max_iterations = 5_000) routes
    ~target =
  let g = Route_table.graph routes in
  let m = Graph.link_count g in
  if Array.length target <> m then
    invalid_arg "Fit.to_link_loads: target length mismatch";
  Array.iter
    (fun t ->
      if not (Float.is_finite t) || t < 0. then
        invalid_arg "Fit.to_link_loads: bad target load")
    target;
  let total_target = Array.fold_left ( +. ) 0. target in
  let seed =
    match seed with
    | Some s ->
      if Matrix.nodes s <> Graph.node_count g then
        invalid_arg "Fit.to_link_loads: seed size mismatch";
      s
    | None -> Gravity.degree_weighted g ~total:(Float.max total_target 1.)
  in
  let current = ref seed in
  let rec iterate n =
    let loads = Loads.primary_link_loads routes !current in
    let err = Loads.link_load_error ~target loads in
    if err <= tolerance || n >= max_iterations then
      { matrix = !current;
        achieved = loads;
        max_relative_error = err;
        iterations = n }
    else begin
      let ratio k =
        if target.(k) = 0. then 0.
        else if loads.(k) <= 0. then ratio_cap
        else Float.min ratio_cap (target.(k) /. loads.(k))
      in
      let adjust i j d =
        if d = 0. || not (Route_table.has_route routes ~src:i ~dst:j) then d
        else begin
          let fold f init =
            Route_table.fold_primary_links routes ~src:i ~dst:j f init
          in
          let log_sum = fold (fun acc k -> acc +. log (ratio k)) 0. in
          let hops = fold (fun hops _ -> hops + 1) 0 in
          d *. exp (log_sum /. float_of_int hops)
        end
      in
      current := Matrix.map !current adjust;
      iterate (n + 1)
    end
  in
  iterate 0

let nsfnet_nominal () =
  let g = Nsfnet.graph () in
  let routes = Route_table.build g in
  let target = Array.make (Graph.link_count g) 0. in
  List.iter
    (fun ((src, dst), lam) ->
      let l = Graph.find_link_exn g ~src ~dst in
      target.(l.Link.id) <- lam)
    Nsfnet.table1_loads;
  (routes, to_link_loads routes ~target)
