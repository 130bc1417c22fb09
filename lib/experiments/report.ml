let section ppf ~id ~title =
  Format.fprintf ppf "@.=== %s: %s ===@." id title

let note ppf s = Format.fprintf ppf "  %s@." s

let series_header ppf ~columns =
  (match columns with
  | [] -> ()
  | first :: rest ->
    Format.fprintf ppf "  %10s" first;
    List.iter (fun c -> Format.fprintf ppf " %14s" c) rest);
  Format.fprintf ppf "@."

let series_row_s ppf ~x ys =
  Format.fprintf ppf "  %10s" x;
  List.iter (fun y -> Format.fprintf ppf " %14.6f" y) ys;
  Format.fprintf ppf "@."

let series_row ppf ~x ys = series_row_s ppf ~x:(Printf.sprintf "%.2f" x) ys

let paper_vs_measured ppf ~what ~paper ~measured =
  Format.fprintf ppf "  %-46s paper: %-18s measured: %s@." what paper measured

let pct b =
  if b >= 0.10 then Printf.sprintf "%.1f%%" (100. *. b)
  else if b >= 0.001 then Printf.sprintf "%.2f%%" (100. *. b)
  else Printf.sprintf "%.4f%%" (100. *. b)
