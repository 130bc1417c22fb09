open Arnet_sim

type point = {
  x : float;
  bound : float;
  schemes : (string * Stats.summary) list;
}

let run ~config ~graph ~matrix_of ~policies_of ~xs =
  let { Config.seeds; duration; warmup } = config in
  let one x =
    let matrix = matrix_of x in
    let policies = policies_of matrix in
    let results =
      Engine.replicate ~warmup ~seeds ~duration ~graph ~matrix ~policies ()
    in
    let schemes =
      List.map (fun (name, runs) -> (name, Stats.blocking_summary runs)) results
    in
    { x; bound = Arnet_bound.Erlang_bound.compute graph matrix; schemes }
  in
  List.map one xs

let columns points =
  match points with
  | [] -> []
  | p :: _ -> List.map fst p.schemes

let print ?(x_label = "load") ppf points =
  Report.series_header ppf ~columns:(x_label :: "erlang-bound" :: columns points);
  List.iter
    (fun p ->
      Report.series_row ppf ~x:p.x
        (p.bound :: List.map (fun (_, s) -> s.Stats.mean) p.schemes))
    points

let scheme_mean point name =
  match List.assoc_opt name point.schemes with
  | Some s -> s.Stats.mean
  | None -> raise Not_found

let to_csv ?(x_label = "load") points =
  let buf = Buffer.create 256 in
  let cols = columns points in
  Buffer.add_string buf x_label;
  Buffer.add_string buf ",erlang_bound";
  List.iter
    (fun c ->
      Buffer.add_string buf (Printf.sprintf ",%s,%s_stderr" c c))
    cols;
  Buffer.add_char buf '\n';
  List.iter
    (fun p ->
      Buffer.add_string buf (Printf.sprintf "%.6g,%.8g" p.x p.bound);
      List.iter
        (fun (_, s) ->
          Buffer.add_string buf
            (Printf.sprintf ",%.8g,%.8g" s.Stats.mean s.Stats.std_error))
        p.schemes;
      Buffer.add_char buf '\n')
    points;
  Buffer.contents buf
