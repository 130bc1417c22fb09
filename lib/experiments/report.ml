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

let timed recorder name f =
  let before = Arnet_sim.Engine.calls_simulated () in
  let gc_before = Gc.quick_stat () in
  let span = Arnet_obs.Span.start name in
  Fun.protect
    ~finally:(fun () ->
      let wall = Arnet_obs.Span.stop span in
      let gc_after = Gc.quick_stat () in
      let calls = Arnet_sim.Engine.calls_simulated () - before in
      let minor_words = gc_after.Gc.minor_words -. gc_before.Gc.minor_words in
      let major_words = gc_after.Gc.major_words -. gc_before.Gc.major_words in
      Arnet_obs.Span.set_meta span "calls" (Arnet_obs.Jsonu.Int calls);
      if calls > 0 && wall > 0. then
        Arnet_obs.Span.set_meta span "calls_per_s"
          (Arnet_obs.Jsonu.Float (float_of_int calls /. wall));
      Arnet_obs.Span.set_meta span "minor_words"
        (Arnet_obs.Jsonu.Float minor_words);
      Arnet_obs.Span.set_meta span "major_words"
        (Arnet_obs.Jsonu.Float major_words);
      if calls > 0 then
        Arnet_obs.Span.set_meta span "minor_words_per_call"
          (Arnet_obs.Jsonu.Float (minor_words /. float_of_int calls));
      Arnet_obs.Span.note recorder span)
    f
