let checks =
  [ Topology_check.check;
    Ingest_check.check;
    Route_check.check;
    Protection_check.check;
    Traffic_check.check ]

let run ?only config =
  let selected =
    match only with
    | None -> checks
    | Some names ->
      List.map
        (fun name ->
          match List.find_opt (fun c -> c.Check.name = name) checks with
          | Some c -> c
          | None -> invalid_arg ("Lint.run: unknown check " ^ name))
        names
  in
  List.concat_map (fun c -> c.Check.run config) selected
  |> List.sort_uniq Diagnostic.compare

let has_errors = List.exists Diagnostic.is_error

let exit_code ?(strict = false) ds =
  if has_errors ds || (strict && ds <> []) then 1 else 0

let summary ds =
  let count sev =
    List.length (List.filter (fun d -> d.Diagnostic.severity = sev) ds)
  in
  let plural n noun =
    Printf.sprintf "%d %s%s" n noun (if n = 1 then "" else "s")
  in
  let errors = count Diagnostic.Error
  and warnings = count Diagnostic.Warning
  and infos = count Diagnostic.Info in
  if errors = 0 && warnings = 0 && infos = 0 then "clean"
  else
    String.concat ", "
      (List.filter_map
         (fun (n, noun) -> if n > 0 then Some (plural n noun) else None)
         [ (errors, "error"); (warnings, "warning"); (infos, "info") ])

let pp_text ppf ds =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d) ds;
  Format.fprintf ppf "%s@." (summary ds)

let to_json = Diagnostic.json_of_list
