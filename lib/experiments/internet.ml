open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core

let nominal () =
  let routes, fit = Fit.nsfnet_nominal () in
  (routes, fit.Fit.matrix)

let default_scales = [ 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0; 1.1; 1.2; 1.3; 1.4 ]

let run ?(h = 11) ?(scales = default_scales) ?(failed_links = [])
    ?with_ott_krishnan ~config () =
  let with_ott_krishnan =
    match with_ott_krishnan with
    | Some b -> b
    | None -> failed_links = []
  in
  let _, matrix0 = nominal () in
  let graph =
    let g = Nsfnet.graph () in
    if failed_links = [] then g else Graph.without_links g failed_links
  in
  let routes = Route_table.build ~h graph in
  let matrix_of scale = Matrix.scale matrix0 scale in
  let policies_of matrix =
    let base =
      [ Scheme.single_path routes;
        Scheme.uncontrolled routes;
        Scheme.controlled_auto ~matrix routes ]
    in
    if with_ott_krishnan then base @ [ Scheme.ott_krishnan ~matrix routes ]
    else base
  in
  Sweep.run ~config ~graph ~matrix_of ~policies_of ~xs:scales

let print ppf points = Sweep.print ~x_label:"load-scale" ppf points

type table1_row = {
  src : int;
  dst : int;
  capacity : int;
  paper_load : float;
  fitted_load : float;
  paper_r6 : int;
  our_r6 : int;
  paper_r11 : int;
  our_r11 : int;
}

let table1 () =
  let routes, fit = Fit.nsfnet_nominal () in
  let g = Route_table.graph routes in
  let loads = fit.Fit.achieved in
  let row ((src, dst), paper_load) =
    let link = Graph.find_link_exn g ~src ~dst in
    let fitted_load = loads.(link.Link.id) in
    let paper_r6, paper_r11 =
      List.assoc (src, dst) Nsfnet.table1_protection
    in
    let our r_h = Protection.level ~offered:fitted_load ~capacity:link.Link.capacity ~h:r_h in
    { src;
      dst;
      capacity = link.Link.capacity;
      paper_load;
      fitted_load;
      paper_r6;
      our_r6 = our 6;
      paper_r11;
      our_r11 = our 11 }
  in
  List.map row Nsfnet.table1_loads

let print_table1 ppf rows =
  Format.fprintf ppf "  %-8s %5s %11s %10s %8s %6s %8s %6s@." "link" "C"
    "lambda(pap)" "lambda(fit)" "r6(pap)" "r6" "r11(pap)" "r11";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %2d->%-4d %5d %11.0f %10.1f %8d %6d %8d %6d@."
        r.src r.dst r.capacity r.paper_load r.fitted_load r.paper_r6 r.our_r6
        r.paper_r11 r.our_r11)
    rows;
  let exact pick =
    List.length (List.filter (fun r -> fst (pick r) = snd (pick r)) rows)
  in
  let close pick =
    List.length
      (List.filter (fun r -> abs (fst (pick r) - snd (pick r)) <= 2) rows)
  in
  Format.fprintf ppf
    "  r(H=6):  %d/%d exact, %d/%d within 2;  r(H=11): %d/%d exact, %d/%d \
     within 2@."
    (exact (fun r -> (r.paper_r6, r.our_r6)))
    (List.length rows)
    (close (fun r -> (r.paper_r6, r.our_r6)))
    (List.length rows)
    (exact (fun r -> (r.paper_r11, r.our_r11)))
    (List.length rows)
    (close (fun r -> (r.paper_r11, r.our_r11)))
    (List.length rows)

type skew_row = { scheme : string; skew : Stats.skew }

let fairness ?(h = 6) ~config () =
  let { Config.seeds; duration; warmup } = config in
  let _, matrix = nominal () in
  let graph = Nsfnet.graph () in
  let routes = Route_table.build ~h graph in
  let policies =
    [ Scheme.single_path routes;
      Scheme.uncontrolled routes;
      Scheme.controlled_auto ~matrix routes ]
  in
  let results =
    Engine.replicate ~warmup ~seeds ~duration ~graph ~matrix ~policies ()
  in
  List.map
    (fun (scheme, runs) ->
      let pooled =
        match runs with
        | [] -> invalid_arg "Internet.fairness: no runs"
        | first :: rest -> List.fold_left Stats.merge first rest
      in
      { scheme; skew = Stats.od_skew pooled })
    results

let print_fairness ppf rows =
  Format.fprintf ppf "  %-14s %10s %10s %10s %14s@." "scheme" "min-block"
    "mean-block" "max-block" "skew (cv)";
  List.iter
    (fun { scheme; skew } ->
      Format.fprintf ppf "  %-14s %10.4f %10.4f %10.4f %14.3f@." scheme
        skew.Stats.min_blocking skew.Stats.mean_blocking
        skew.Stats.max_blocking skew.Stats.coefficient_of_variation)
    rows
