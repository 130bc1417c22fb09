(* arn — command-line front end for the alternate-routing library.

   Subcommands expose the building blocks (Erlang calculations,
   protection levels, path enumeration, the traffic-matrix fit, the
   cut-set bound) and full simulations of the paper's networks. *)

open Cmdliner
open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core
module Path_dv = Arnet_paths.Distance_vector
module Dalfar = Arnet_paths.Dalfar
module Obs = Arnet_obs

let ppf = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* shared argument parsing *)

let network_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "nsfnet" -> Ok `Nsfnet
    | "quadrangle" | "k4" -> Ok `Quadrangle
    | s -> (
      match String.split_on_char ':' s with
      | [ "mesh"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 2 -> Ok (`Mesh n)
        | _ -> Error (`Msg "mesh:N needs N >= 2"))
      | [ "ring"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 3 -> Ok (`Ring n)
        | _ -> Error (`Msg "ring:N needs N >= 3"))
      | "file" :: rest when rest <> [] ->
        Ok (`File (String.concat ":" rest))
      | _ -> Error (`Msg (Printf.sprintf "unknown network %S" s)))
  in
  let print ppf = function
    | `Nsfnet -> Format.fprintf ppf "nsfnet"
    | `Quadrangle -> Format.fprintf ppf "quadrangle"
    | `Mesh n -> Format.fprintf ppf "mesh:%d" n
    | `Ring n -> Format.fprintf ppf "ring:%d" n
    | `File p -> Format.fprintf ppf "file:%s" p
  in
  Arg.conv (parse, print)

let network_arg =
  let doc =
    "Network: $(b,nsfnet), $(b,quadrangle), $(b,mesh:N), $(b,ring:N) or \
     $(b,file:PATH) (see the spec format in lib/serial)."
  in
  Arg.(value & opt network_conv `Nsfnet & info [ "network"; "n" ] ~doc)

let capacity_arg =
  let doc = "Link capacity (calls) for synthetic networks." in
  Arg.(value & opt int 100 & info [ "capacity"; "c" ] ~doc)

(* a network, read once per command: its graph and, for a file spec,
   the demand lines it declares.  A missing or malformed spec file is
   one stderr line naming it, prefixed with the subcommand [cmd], and
   exit 2 — the convention [load_topo] keeps *)
let load_network ~cmd network capacity : Arnet_serial.Spec.t =
  let synthetic graph = { Arnet_serial.Spec.graph; matrix = None } in
  match network with
  | `Nsfnet -> synthetic (Nsfnet.graph ())
  | `Quadrangle -> synthetic (Builders.full_mesh ~nodes:4 ~capacity)
  | `Mesh n -> synthetic (Builders.full_mesh ~nodes:n ~capacity)
  | `Ring n -> synthetic (Builders.ring ~nodes:n ~capacity)
  | `File path -> (
    try Arnet_serial.Spec.of_file path with
    | Sys_error msg ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit 2
    | Arnet_serial.Spec.Parse_error (line, msg) ->
      Printf.eprintf "%s: %s:%d: %s\n" cmd path line msg;
      exit 2)

(* the traffic matrix a network implies: NSFNet -> the fitted nominal,
   file specs -> their demand lines, otherwise uniform demand *)
let build_matrix network (net : Arnet_serial.Spec.t) ~scale ~demand =
  match (network, net.matrix) with
  | `Nsfnet, _ ->
    let _, m = Arnet_experiments.Internet.nominal () in
    Matrix.scale m scale
  | _, Some m -> Matrix.scale m scale
  | _, None ->
    Matrix.uniform
      ~nodes:(Graph.node_count net.graph)
      ~demand:(demand *. scale)

let quick_arg =
  let doc = "Fewer seeds and a shorter window (for iteration)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let format_conv =
  let parse = function
    | "text" -> Ok `Text
    | "json" -> Ok `Json
    | s -> Error (`Msg (Printf.sprintf "unknown format %S" s))
  in
  let print ppf = function
    | `Text -> Format.fprintf ppf "text"
    | `Json -> Format.fprintf ppf "json"
  in
  Arg.conv (parse, print)

let network_to_string = function
  | `Nsfnet -> "nsfnet"
  | `Quadrangle -> "quadrangle"
  | `Mesh n -> Printf.sprintf "mesh:%d" n
  | `Ring n -> Printf.sprintf "ring:%d" n
  | `File p -> Printf.sprintf "file:%s" p

let config_of_quick quick =
  if quick then Arnet_experiments.Config.quick
  else Arnet_experiments.Config.paper

(* ------------------------------------------------------------------ *)
(* arn erlang *)

let erlang_cmd =
  let offered =
    Arg.(required & pos 0 (some float) None & info [] ~docv:"OFFERED")
  in
  let capacity =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"CAPACITY")
  in
  let run offered capacity =
    let b = Arnet_erlang.Erlang_b.blocking ~offered ~capacity in
    Format.fprintf ppf "B(%g, %d)        = %.8f@." offered capacity b;
    Format.fprintf ppf "carried          = %.4f Erlangs@."
      (Arnet_erlang.Erlang_b.mean_carried ~offered ~capacity);
    Format.fprintf ppf "loss rate        = %.4f calls/unit time@."
      (Arnet_erlang.Erlang_b.loss_rate ~offered ~capacity);
    Format.fprintf ppf "d(loss)/d(load)  = %.6f@."
      (Arnet_erlang.Erlang_b.loss_rate_derivative ~offered ~capacity)
  in
  Cmd.v
    (Cmd.info "erlang" ~doc:"Erlang-B blocking and derived quantities")
    Term.(const run $ offered $ capacity)

(* ------------------------------------------------------------------ *)
(* arn protection *)

let protection_cmd =
  let offered =
    Arg.(required & pos 0 (some float) None & info [] ~docv:"LOAD")
  in
  let capacity =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"CAPACITY")
  in
  let h =
    let doc = "Maximum alternate path hop length H." in
    Arg.(value & opt int 6 & info [ "max-hops"; "H" ] ~doc)
  in
  let run offered capacity h =
    let r = Protection.level ~offered ~capacity ~h in
    Format.fprintf ppf
      "smallest r with B(%g,%d)/B(%g,%d-r) <= 1/%d:  r = %d@." offered
      capacity offered capacity h r;
    Format.fprintf ppf "bound at that r: %.6f (target %.6f)@."
      (Protection.bound ~offered ~capacity ~reserve:r)
      (1. /. float_of_int h)
  in
  Cmd.v
    (Cmd.info "protection"
       ~doc:"State-protection level for a link (Section 3.1)")
    Term.(const run $ offered $ capacity $ h)

(* ------------------------------------------------------------------ *)
(* arn paths *)

let paths_cmd =
  let src = Arg.(required & pos 0 (some int) None & info [] ~docv:"SRC") in
  let dst = Arg.(required & pos 1 (some int) None & info [] ~docv:"DST") in
  let h =
    let doc = "Cap alternate hop length." in
    Arg.(value & opt (some int) None & info [ "max-hops"; "H" ] ~doc)
  in
  let run network capacity src dst h =
    let g = (load_network ~cmd:"arn paths" network capacity).graph in
    let routes = Route_table.build ?h g in
    if not (Route_table.has_route routes ~src ~dst) then
      Format.fprintf ppf "no route from %d to %d@." src dst
    else begin
      Format.fprintf ppf "primary:   %s@."
        (Path.to_string (Route_table.primary routes ~src ~dst));
      List.iteri
        (fun i p ->
          Format.fprintf ppf "alt %2d:    %s (%d hops)@." (i + 1)
            (Path.to_string p) (Path.hops p))
        (Route_table.alternates routes ~src ~dst)
    end
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Primary and alternate paths for an O-D pair")
    Term.(const run $ network_arg $ capacity_arg $ src $ dst $ h)

(* ------------------------------------------------------------------ *)
(* arn topology *)

let topology_cmd =
  let dot =
    let doc = "Emit graphviz instead of a link table." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let run network capacity dot =
    let g = (load_network ~cmd:"arn topology" network capacity).graph in
    if dot then print_string (Graph.to_dot g)
    else Format.fprintf ppf "%a@." Graph.pp g
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Describe a built-in network")
    Term.(const run $ network_arg $ capacity_arg $ dot)

(* ------------------------------------------------------------------ *)
(* arn topo: real-topology ingestion (GraphViz dot, Topology-Zoo GML) *)

module Ingest = Arnet_ingest

let topo_format_conv =
  let parse = function
    | "gml" -> Ok `Gml
    | "dot" | "gv" -> Ok `Dot
    | s -> Error (`Msg (Printf.sprintf "unknown topology format %S" s))
  in
  let print ppf = function
    | `Gml -> Format.fprintf ppf "gml"
    | `Dot -> Format.fprintf ppf "dot"
  in
  Arg.conv (parse, print)

let topo_format_of_path path =
  match String.lowercase_ascii (Filename.extension path) with
  | ".gml" -> Some `Gml
  | ".dot" | ".gv" -> Some `Dot
  | _ -> None

(* Imported meshes can be big and sparse, where the unrestricted
   default H = node_count - 1 makes alternate enumeration explode; when
   --topology is given without an explicit -H, cap alternates at the
   deployment-style hop length the compile bench uses. *)
let default_import_h = 6

let import_h h topology =
  match (h, topology) with
  | None, Some _ -> Some default_import_h
  | _ -> h

(* a topology file, or one line on stderr prefixed with the calling
   subcommand [cmd] and exit 2 *)
let load_topo ~cmd ?format path =
  let format =
    match format with
    | Some f -> f
    | None -> (
      match topo_format_of_path path with
      | Some f -> f
      | None ->
        Printf.eprintf
          "%s: %s: unrecognised extension (expected .gml, .dot or .gv); \
           pass --format\n"
          cmd path;
        exit 2)
  in
  try
    match format with
    | `Gml -> Ingest.Gml.load path
    | `Dot -> Ingest.Dot.load path
  with
  | Ingest.Gml.Error msg | Ingest.Dot.Error msg ->
    Printf.eprintf "%s: %s: %s\n" cmd path msg;
    exit 2
  | Sys_error msg ->
    Printf.eprintf "%s: %s\n" cmd msg;
    exit 2

(* a topology to route calls over: [load_topo], and at least the two
   nodes of one pair *)
let load_network_topo ~cmd path =
  let t = load_topo ~cmd path in
  let n = Graph.node_count t.Ingest.Topo.graph in
  if n < 2 then begin
    Printf.eprintf "%s: %s: need at least 2 nodes, got %d\n" cmd path n;
    exit 2
  end;
  t

let render_topo ~format topo =
  match format with
  | `Gml -> Ingest.Gml.to_gml topo
  | `Dot -> Ingest.Dot.to_dot topo

let topo_write out text =
  match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Format.fprintf ppf "wrote %s@." path

let topo_file_arg =
  let doc = "Topology file: Topology-Zoo GML ($(b,.gml)) or GraphViz \
             ($(b,.dot), $(b,.gv))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let topo_fmt_arg =
  let doc = "Input format ($(b,gml) or $(b,dot)); default from the file \
             extension." in
  Arg.(value & opt (some topo_format_conv) None & info [ "format" ] ~doc)

let topo_out_arg =
  let doc = "Write to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let topo_to_arg default =
  let doc = "Output codec: $(b,gml) or $(b,dot)." in
  Arg.(value & opt topo_format_conv default & info [ "to" ] ~doc)

let topo_import_cmd =
  let run file fmt out =
    let t = load_topo ~cmd:"arn topo" ?format:fmt file in
    Format.fprintf ppf "imported %s: %d nodes, %d links@." t.Ingest.Topo.name
      (Graph.node_count t.Ingest.Topo.graph)
      (Graph.link_count t.Ingest.Topo.graph);
    if t.Ingest.Topo.merged_parallel > 0 then
      Format.fprintf ppf "  merged %d parallel edge(s), capacities summed@."
        t.Ingest.Topo.merged_parallel;
    if t.Ingest.Topo.dropped_self_loops > 0 then
      Format.fprintf ppf "  dropped %d self loop(s)@."
        t.Ingest.Topo.dropped_self_loops;
    (* -o normalises: the canonical GML is a fixpoint of parse/print *)
    Option.iter
      (fun path -> topo_write (Some path) (Ingest.Gml.to_gml t))
      out
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:
         "Parse a topology file, report what the importer cleaned up, \
          and optionally write the canonical GML form")
    Term.(const run $ topo_file_arg $ topo_fmt_arg $ topo_out_arg)

let topo_export_cmd =
  let run file fmt target out =
    topo_write out
      (render_topo ~format:target (load_topo ~cmd:"arn topo" ?format:fmt file))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Convert a topology file between the GML and dot codecs \
          (export then import is the identity)")
    Term.(
      const run $ topo_file_arg $ topo_fmt_arg $ topo_to_arg `Dot
      $ topo_out_arg)

let topo_stats_cmd =
  let run file fmt =
    let t = load_topo ~cmd:"arn topo" ?format:fmt file in
    Format.fprintf ppf "%a@."
      (Ingest.Topo.pp_summary ~name:t.Ingest.Topo.name)
      (Ingest.Topo.summarize t)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Summarize a topology file")
    Term.(const run $ topo_file_arg $ topo_fmt_arg)

let topo_gen_cmd =
  let nodes =
    let doc = "Number of nodes (>= 2)." in
    Arg.(value & opt int 100 & info [ "nodes"; "n" ] ~doc)
  in
  let degree =
    let doc = "Maximum undirected degree (>= 2)." in
    Arg.(value & opt int 4 & info [ "degree" ] ~doc)
  in
  let seed =
    let doc = "Generator seed; the mesh is a pure function of \
               (seed, capacity, degree, nodes)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~doc)
  in
  let run nodes degree capacity seed target out =
    let t =
      try Ingest.Mesh.random_mesh ~seed ~capacity ~degree ~nodes ()
      with Invalid_argument msg ->
        Printf.eprintf "arn topo gen: %s\n" msg;
        exit 2
    in
    topo_write out (render_topo ~format:target t)
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a deterministic ISP-like mesh (sparse, geographic, \
          degree-bounded) for scale tests")
    Term.(
      const run $ nodes $ degree $ capacity_arg $ seed $ topo_to_arg `Gml
      $ topo_out_arg)

let topo_cmd =
  Cmd.group
    (Cmd.info "topo"
       ~doc:
         "Import, convert, summarize and generate network topologies \
          (Topology-Zoo GML, GraphViz dot)")
    [ topo_import_cmd; topo_export_cmd; topo_stats_cmd; topo_gen_cmd ]

(* ------------------------------------------------------------------ *)
(* arn fit *)

let fit_cmd =
  let run () =
    let _, fit = Fit.nsfnet_nominal () in
    Format.fprintf ppf
      "fitted NSFNet nominal matrix: %d iterations, max relative link-load \
       error %.2e, total %.1f Erlangs@."
      fit.Fit.iterations fit.Fit.max_relative_error
      (Matrix.total fit.Fit.matrix);
    Format.fprintf ppf "%a@." Matrix.pp fit.Fit.matrix
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:"Reconstruct the NSFNet traffic matrix from Table 1 loads")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* arn bound *)

let bound_cmd =
  let scale =
    let doc = "Scale factor on the nominal/base traffic matrix." in
    Arg.(value & opt float 1.0 & info [ "scale"; "s" ] ~doc)
  in
  let demand =
    let doc = "Per-pair demand (synthetic networks only)." in
    Arg.(value & opt float 80. & info [ "demand"; "d" ] ~doc)
  in
  let run network capacity scale demand =
    let net = load_network ~cmd:"arn bound" network capacity in
    let g = net.graph and matrix = build_matrix network net ~scale ~demand in
    let bound, cut = Arnet_bound.Erlang_bound.compute_with_argmax g matrix in
    Format.fprintf ppf "erlang cut-set bound: %.6f@." bound;
    let members =
      Array.to_list (Array.mapi (fun v b -> (v, b)) cut)
      |> List.filter_map (fun (v, b) -> if b then Some (string_of_int v) else None)
    in
    Format.fprintf ppf "binding cut S = {%s}@." (String.concat "," members)
  in
  Cmd.v
    (Cmd.info "bound" ~doc:"Erlang cut-set lower bound on network blocking")
    Term.(const run $ network_arg $ capacity_arg $ scale $ demand)

(* ------------------------------------------------------------------ *)
(* arn simulate *)

let simulate_cmd =
  let scale =
    let doc = "Traffic scale (NSFNet) or per-pair Erlangs (synthetic)." in
    Arg.(value & opt float 1.0 & info [ "load"; "l" ] ~doc)
  in
  let topology =
    let doc =
      "Simulate an imported topology file ($(b,.gml), $(b,.dot)/$(b,.gv)) \
       instead of a built-in network, with degree-weighted gravity \
       traffic scaled by $(b,--load).  Alternates are capped at H = 6 \
       unless $(b,--max-hops) says otherwise (the unrestricted default \
       explodes on large sparse meshes)."
    in
    Arg.(
      value & opt (some string) None & info [ "topology" ] ~docv:"FILE" ~doc)
  in
  let h =
    let doc = "Maximum alternate hop length." in
    Arg.(value & opt (some int) None & info [ "max-hops"; "H" ] ~doc)
  in
  let with_ott =
    let doc = "Include the Ott-Krishnan shadow-price scheme." in
    Arg.(value & flag & info [ "ott-krishnan" ] ~doc)
  in
  let trace_file =
    let doc =
      "Stream every simulation event (arrivals, per-alternate \
       trunk-reservation rejections, admits, blocks, departures) as JSON \
       lines to $(docv).  Summarize later with $(b,arn trace summarize)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_file =
    let doc =
      "Write a Prometheus text-format metrics snapshot (counters, \
       per-link capacity and protection-level gauges, holding-time and \
       hop histograms) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let json =
    let doc = "Emit the results as JSON on stdout instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run network capacity scale h with_ott quick topology trace_file
      metrics_file json =
    let config = config_of_quick quick in
    (* an imported topology overrides --network: its gravity matrix is
       the natural demand for a graph with no fitted matrix of its own *)
    let g, matrix =
      match topology with
      | Some path ->
        let t = load_network_topo ~cmd:"arn simulate" path in
        ( t.Ingest.Topo.graph,
          Matrix.scale (Ingest.Mesh.gravity t) scale )
      | None ->
        (* --load scales NSFNet and file demands, and is the per-pair
           demand of a synthetic network *)
        let net = load_network ~cmd:"arn simulate" network capacity in
        (net.graph, build_matrix network net ~scale ~demand:1.0)
    in
    let routes = Route_table.build ?h:(import_h h topology) g in
    (* observability: fan the event stream out to whichever consumers
       were requested; [None] leaves the engine hot path untouched *)
    let trace_sink = Option.map Obs.Jsonl.sink_of_file trace_file in
    let metrics_feed =
      Option.map
        (fun path -> (path, Obs.Metrics_sink.create (Obs.Metrics.create ())))
        metrics_file
    in
    let sink =
      match
        Option.to_list trace_sink
        @ Option.to_list (Option.map (fun (_, m) -> Obs.Metrics_sink.sink m)
                            metrics_feed)
      with
      | [] -> None
      | [ s ] -> Some s
      | sinks -> Some (Obs.Sink.tee sinks)
    in
    let observer = Option.map Obs.Sink.observer sink in
    let policies =
      [ Scheme.single_path ?observer routes;
        Scheme.uncontrolled ?observer routes;
        Scheme.controlled_auto ?observer ~matrix routes ]
      @ (if with_ott then [ Scheme.ott_krishnan ~matrix routes ] else [])
    in
    let { Arnet_experiments.Config.seeds; duration; warmup } = config in
    if not json then
      Format.fprintf ppf "simulating (%s)...@."
        (Arnet_experiments.Config.describe config);
    let observe =
      Option.map (fun f ~seed:_ ~policy:_ -> Some f) observer
    in
    let results =
      Engine.replicate ~warmup ?observe ~seeds ~duration ~graph:g ~matrix
        ~policies ()
    in
    Option.iter Obs.Sink.close sink;
    Option.iter
      (fun (path, m) ->
        (* the same per-link capacity/r^k gauges the daemon's /metrics
           serves: one registry shape across sim and serve *)
        Obs.Metrics_sink.set_network m
          ~capacities:
            (Array.map (fun l -> l.Arnet_topology.Link.capacity)
               (Graph.links g))
          ~reserves:
            (Protection.levels routes matrix ~h:(Route_table.h routes));
        let oc = open_out path in
        output_string oc (Obs.Metrics.to_prometheus (Obs.Metrics_sink.registry m));
        close_out oc;
        if not json then Format.fprintf ppf "wrote %s@." path)
      metrics_feed;
    (match trace_file with
    | Some path when not json -> Format.fprintf ppf "wrote %s@." path
    | _ -> ());
    (* the cut-set bound enumerates every cut — exponential in nodes, and
       Cutset refuses past 24; on larger imports just omit the line *)
    let bound =
      if Graph.node_count g <= 24 then
        Some (Arnet_bound.Erlang_bound.compute g matrix)
      else None
    in
    if json then begin
      let summary_json (s : Stats.summary) =
        Obs.Jsonu.Obj
          [ ("mean", Obs.Jsonu.Float s.Stats.mean);
            ("std_error", Obs.Jsonu.Float s.Stats.std_error);
            ("replications", Obs.Jsonu.Int s.Stats.replications) ]
      in
      let run_json (st : Stats.t) =
        Obs.Jsonu.Obj
          [ ("offered", Obs.Jsonu.Int st.Stats.offered);
            ("blocked", Obs.Jsonu.Int st.Stats.blocked);
            ("carried_primary", Obs.Jsonu.Int st.Stats.carried_primary);
            ("carried_alternate", Obs.Jsonu.Int st.Stats.carried_alternate);
            ("blocking", Obs.Jsonu.Float (Stats.blocking st));
            ("alternate_fraction",
             Obs.Jsonu.Float (Stats.alternate_fraction st)) ]
      in
      let policy_json (name, runs) =
        Obs.Jsonu.Obj
          [ ("policy", Obs.Jsonu.String name);
            ("blocking", summary_json (Stats.blocking_summary runs));
            ("alternate_fraction",
             summary_json
               (Stats.summarize (List.map Stats.alternate_fraction runs)));
            ("runs", Obs.Jsonu.List (List.map run_json runs)) ]
      in
      let doc =
        Obs.Jsonu.Obj
          ([ ("network",
             Obs.Jsonu.String
               (match topology with
               | Some path -> "topo:" ^ path
               | None -> network_to_string network));
            ("load", Obs.Jsonu.Float scale);
            ("seeds", Obs.Jsonu.List (List.map (fun s -> Obs.Jsonu.Int s) seeds));
            ("duration", Obs.Jsonu.Float duration);
            ("warmup", Obs.Jsonu.Float warmup);
            ("policies", Obs.Jsonu.List (List.map policy_json results)) ]
          @
          match bound with
          | Some b -> [ ("erlang_bound", Obs.Jsonu.Float b) ]
          | None -> [])
      in
      print_endline (Obs.Jsonu.to_string doc)
    end
    else begin
      List.iter
        (fun (name, runs) ->
          let s = Stats.blocking_summary runs in
          let alt =
            Stats.summarize (List.map Stats.alternate_fraction runs)
          in
          Format.fprintf ppf
            "  %-22s blocking %.4f +/- %.4f   alternate-routed %.1f%%@." name
            s.Stats.mean s.Stats.std_error (100. *. alt.Stats.mean))
        results;
      Option.iter
        (fun b -> Format.fprintf ppf "  %-22s blocking %.4f@." "erlang-bound" b)
        bound
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Call-by-call simulation of the schemes")
    Term.(
      const run $ network_arg $ capacity_arg $ scale $ h $ with_ott
      $ quick_arg $ topology $ trace_file $ metrics_file $ json)

(* ------------------------------------------------------------------ *)
(* arn experiment *)

let experiment_cmd =
  let write_csv csv points =
    match csv with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Arnet_experiments.Sweep.to_csv points);
      close_out oc;
      Format.fprintf ppf "wrote %s@." path
  in
  let module E = Arnet_experiments in
  (* every experiment by name, with its runner over (config, --csv):
     the NAME argument and its documentation both come from here *)
  let experiments =
    [ ("fig1", fun _ _ -> E.Fig1.print ppf (E.Fig1.run ()));
      ("fig2", fun _ _ -> E.Fig2.print ppf (E.Fig2.run ()));
      ( "fig3",
        fun config csv ->
          let points = E.Quadrangle.run ~config () in
          E.Quadrangle.print ppf points;
          write_csv csv points );
      ( "fig6",
        fun config csv ->
          let points = E.Internet.run ~config () in
          E.Internet.print ppf points;
          write_csv csv points );
      ("table1", fun _ _ -> E.Internet.print_table1 ppf (E.Internet.table1 ()));
      ( "exp_h6",
        fun config _ ->
          E.Internet.print ppf
            (E.Internet.run ~h:6 ~with_ott_krishnan:false ~config ()) );
      ( "exp_fairness",
        fun config _ ->
          E.Internet.print_fairness ppf (E.Internet.fairness ~config ()) );
      ( "exp_minloss",
        fun config _ -> E.Minloss.print ppf (E.Minloss.run ~config ()) );
      ( "exp_overload",
        fun config _ ->
          E.Overload_exp.print ppf (E.Overload_exp.run ~config ()) );
      ( "ext_cellular",
        fun config _ ->
          E.Cellular_exp.print ppf (E.Cellular_exp.run ~config ()) );
      ( "ext_bistability",
        fun config _ ->
          E.Bistability_exp.print ppf (E.Bistability_exp.run ~config ()) );
      ( "ext_signalling",
        fun config _ ->
          E.Signalling_exp.print ppf (E.Signalling_exp.run ~config ()) );
      ( "ext_random_mesh",
        fun config _ ->
          E.Random_mesh.print ppf (E.Random_mesh.run ~config ()) );
      ( "ext_failure",
        fun config _ ->
          E.Failure_exp.print ppf (E.Failure_exp.run ~config ()) ) ]
  in
  let experiment =
    Arg.(
      required
      & pos 0 (some (enum experiments)) None
      & info [] ~docv:"NAME"
          ~doc:("The experiment: " ^ Arg.doc_alts_enum experiments ^ "."))
  in
  let csv =
    let doc = "Also write the sweep as CSV to this file (fig3/fig6 only)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~doc)
  in
  let run experiment quick csv = experiment (config_of_quick quick) csv in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one reproduction experiment")
    Term.(const run $ experiment $ quick_arg $ csv)

(* ------------------------------------------------------------------ *)
(* arn dalfar *)

let dalfar_cmd =
  let src = Arg.(required & pos 0 (some int) None & info [] ~docv:"SRC") in
  let dst = Arg.(required & pos 1 (some int) None & info [] ~docv:"DST") in
  let h =
    let doc = "Hop budget for the set-up packet." in
    Arg.(value & opt int 11 & info [ "max-hops"; "H" ] ~doc)
  in
  let run network capacity src dst h =
    let g = (load_network ~cmd:"arn dalfar" network capacity).graph in
    let dv = Path_dv.compute g in
    Format.fprintf ppf
      "distance-vector protocol: %d rounds, %d messages (agrees with \
       centralized BFS: %b)@."
      (Path_dv.rounds dv) (Path_dv.messages dv)
      (Path_dv.agrees_with_bfs g dv);
    let paths, stats = Dalfar.find_paths g dv ~src ~dst ~max_hops:h in
    Format.fprintf ppf
      "set-up exploration %d->%d (budget %d): %d paths, %d expansions, %d \
       crankbacks@."
      src dst h (List.length paths) stats.Dalfar.expansions
      stats.Dalfar.crankbacks;
    List.iteri
      (fun i p ->
        Format.fprintf ppf "  %2d. %s (%d hops)@." (i + 1) (Path.to_string p)
          (Path.hops p))
      paths
  in
  Cmd.v
    (Cmd.info "dalfar"
       ~doc:"Distributed alternate-route discovery with crankback")
    Term.(const run $ network_arg $ capacity_arg $ src $ dst $ h)

(* ------------------------------------------------------------------ *)
(* arn spec *)

let spec_cmd =
  let with_matrix =
    let doc = "Include the network's traffic matrix as demand lines." in
    Arg.(value & flag & info [ "with-demands" ] ~doc)
  in
  let run network capacity with_matrix =
    let net = load_network ~cmd:"arn spec" network capacity in
    let matrix =
      if with_matrix then Some (build_matrix network net ~scale:1.0 ~demand:1.0)
      else None
    in
    print_string (Arnet_serial.Spec.to_string ?matrix net.graph)
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:"Dump a network (optionally with demands) in the text format")
    Term.(const run $ network_arg $ capacity_arg $ with_matrix)

(* ------------------------------------------------------------------ *)
(* arn lint *)

let lint_cmd =
  let format_arg =
    let doc = "Output format: $(b,text) or $(b,json)." in
    Arg.(value & opt format_conv `Text & info [ "format"; "f" ] ~doc)
  in
  let strict =
    let doc = "Treat warnings and infos as findings (nonzero exit)." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let h =
    let doc = "Maximum alternate hop length H for the route table." in
    Arg.(value & opt (some int) None & info [ "max-hops"; "H" ] ~doc)
  in
  let demand =
    let doc = "Per-pair demand in Erlangs (synthetic networks only)." in
    Arg.(value & opt float 80. & info [ "demand"; "d" ] ~doc)
  in
  let scale =
    let doc = "Scale factor on the nominal/base traffic matrix." in
    Arg.(value & opt float 1.0 & info [ "scale"; "s" ] ~doc)
  in
  let reserve_conv =
    let parse s =
      match String.split_on_char '=' s with
      | [ k; r ] -> (
        match (int_of_string_opt k, int_of_string_opt r) with
        | Some k, Some r -> Ok (k, r)
        | _ -> Error (`Msg "expected LINK=RESERVE with integer parts"))
      | _ -> Error (`Msg "expected LINK=RESERVE")
    in
    let print ppf (k, r) = Format.fprintf ppf "%d=%d" k r in
    Arg.conv (parse, print)
  in
  let overrides =
    let doc =
      "Override the protection level of link $(i,LINK) (by id) to \
       $(i,RESERVE) before linting; repeatable.  The default levels come \
       from Protection.levels and are minimal by construction — use this \
       to audit a hand-tuned (or corrupted) deployment."
    in
    Arg.(
      value
      & opt_all reserve_conv []
      & info [ "reserve"; "r" ] ~docv:"LINK=RESERVE" ~doc)
  in
  let topology =
    let doc =
      "Lint an imported topology file ($(b,.gml), $(b,.dot)/$(b,.gv)) \
       instead of a built-in network: the import checks (merged parallel \
       edges, dropped self loops, missing coordinates, isolated nodes) \
       run alongside the structural ones, against degree-weighted \
       gravity traffic.  Alternates are capped at H = 6 unless \
       $(b,--max-hops) says otherwise."
    in
    Arg.(
      value & opt (some string) None & info [ "topology" ] ~docv:"FILE" ~doc)
  in
  let regional =
    let doc =
      "The configuration is meant to drive the regional failure model, \
       so nodes without coordinates are errors, not infos (only \
       meaningful with $(b,--topology))."
    in
    Arg.(value & flag & info [ "regional" ] ~doc)
  in
  let only =
    let names =
      List.map
        (fun (c : Arnet_analysis.Check.t) ->
          (c.Arnet_analysis.Check.name, c.Arnet_analysis.Check.name))
        Arnet_analysis.Lint.checks
    in
    let doc =
      "Run only this check (repeatable): " ^ Arg.doc_alts_enum names
      ^ ", as $(b,--list-checks) describes them."
    in
    Arg.(value & opt_all (enum names) [] & info [ "check" ] ~docv:"NAME" ~doc)
  in
  let list_checks =
    let doc =
      "List every check with its diagnostic codes and exit."
    in
    Arg.(value & flag & info [ "list"; "list-checks" ] ~doc)
  in
  let run network capacity h scale demand format strict overrides topology
      regional only list_checks =
    let module A = Arnet_analysis in
    if list_checks then begin
      List.iter
        (fun (c : A.Check.t) ->
          Format.fprintf ppf "%-12s %s@." c.A.Check.name c.A.Check.describe;
          List.iter
            (fun (code, meaning) ->
              Format.fprintf ppf "  %-18s %s@." code meaning)
            c.A.Check.codes)
        A.Lint.checks
    end
    else begin
      let config =
        (* exit 2 on anything that prevents even assembling the
           configuration: unreadable files (the loaders exit 2
           themselves), out-of-range overrides, a bad H *)
        try
          let g, matrix, import =
            match topology with
            | Some path ->
              let t = load_network_topo ~cmd:"arn lint" path in
              ( t.Ingest.Topo.graph,
                Matrix.scale (Ingest.Mesh.gravity t) scale,
                Some
                  { A.Check.coords = t.Ingest.Topo.coords;
                    merged_parallel = t.Ingest.Topo.merged_parallel;
                    dropped_self_loops = t.Ingest.Topo.dropped_self_loops } )
            | None ->
              let net = load_network ~cmd:"arn lint" network capacity in
              (net.graph, build_matrix network net ~scale ~demand, None)
          in
          let routes = Route_table.build ?h:(import_h h topology) g in
          let reserves =
            Protection.levels routes matrix ~h:(Route_table.h routes)
          in
          List.iter
            (fun (k, r) ->
              if k < 0 || k >= Array.length reserves then
                invalid_arg
                  (Printf.sprintf "--reserve %d=%d: no link with id %d" k r k);
              reserves.(k) <- r)
            overrides;
          A.Check.config ~routes ~matrix ~reserves ?import ~regional g
        with Invalid_argument msg | Failure msg ->
          Printf.eprintf "arn lint: invalid configuration: %s\n" msg;
          exit 2
      in
      let only = match only with [] -> None | names -> Some names in
      let findings = A.Lint.run ?only config in
      (match format with
      | `Text -> Format.fprintf ppf "%a" A.Lint.pp_text findings
      | `Json -> Format.fprintf ppf "%s@." (A.Lint.to_json findings));
      exit (A.Lint.exit_code ~strict findings)
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify a routing configuration (topology, routes, \
          protection levels, traffic) before running it"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 on a clean configuration (no error-severity findings;";
           `Noblank;
           `P "with $(b,--strict), no findings at all);";
           `Noblank;
           `P "1 when findings remain;";
           `Noblank;
           `P "2 when the configuration cannot be loaded at all.";
         ])
    Term.(
      const run $ network_arg $ capacity_arg $ h $ scale $ demand
      $ format_arg $ strict $ overrides $ topology $ regional $ only
      $ list_checks)

(* ------------------------------------------------------------------ *)
(* arn trace *)

let trace_summarize_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE"
           ~doc:"JSON-lines trace written by $(b,arn simulate --trace).")
  in
  let format_arg =
    let doc = "Output format: $(b,text) or $(b,json)." in
    Arg.(value & opt format_conv `Text & info [ "format"; "f" ] ~doc)
  in
  let run file format =
    let counters = Obs.Counters.create () in
    (try
       Obs.Jsonl.fold_file file ~init:() ~f:(fun () ev ->
           Obs.Counters.emit counters ev)
     with
    | Sys_error msg ->
      Printf.eprintf "arn trace summarize: %s\n" msg;
      exit 2
    | Obs.Jsonu.Parse_error msg ->
      Printf.eprintf "arn trace summarize: %s\n" msg;
      exit 2);
    let groups = Obs.Counters.by_policy counters in
    if groups = [] then begin
      Printf.eprintf "arn trace summarize: %s holds no events\n" file;
      exit 2
    end;
    (* pool decision detail across a policy's replications *)
    let pooled_rejections runs =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun r ->
          List.iter
            (fun (link, n) ->
              let prev = Option.value ~default:0 (Hashtbl.find_opt tbl link) in
              Hashtbl.replace tbl link (prev + n))
            (Obs.Counters.rejections_by_link r))
        runs;
      Hashtbl.fold (fun link n acc -> (link, n) :: acc) tbl []
      |> List.sort compare
    in
    let sum f runs = List.fold_left (fun acc r -> acc + f r) 0 runs in
    match format with
    | `Json ->
      let policy_json (policy, runs) =
        let blocking =
          Stats.summarize (List.map Obs.Counters.blocking runs)
        in
        let alt =
          Stats.summarize (List.map Obs.Counters.alternate_fraction runs)
        in
        Obs.Jsonu.Obj
          [ ("policy", Obs.Jsonu.String policy);
            ("runs", Obs.Jsonu.Int (List.length runs));
            ("blocking",
             Obs.Jsonu.Obj
               [ ("mean", Obs.Jsonu.Float blocking.Stats.mean);
                 ("std_error", Obs.Jsonu.Float blocking.Stats.std_error) ]);
            ("alternate_fraction", Obs.Jsonu.Float alt.Stats.mean);
            ("offered", Obs.Jsonu.Int (sum (fun r -> r.Obs.Counters.offered) runs));
            ("blocked", Obs.Jsonu.Int (sum (fun r -> r.Obs.Counters.blocked) runs));
            ("carried_primary",
             Obs.Jsonu.Int (sum (fun r -> r.Obs.Counters.carried_primary) runs));
            ("carried_alternate",
             Obs.Jsonu.Int (sum (fun r -> r.Obs.Counters.carried_alternate) runs));
            ("primary_attempts",
             Obs.Jsonu.Int (sum (fun r -> r.Obs.Counters.primary_attempts) runs));
            ("primary_admitted",
             Obs.Jsonu.Int (sum (fun r -> r.Obs.Counters.primary_admitted) runs));
            ("alternate_rejections",
             Obs.Jsonu.Int
               (sum (fun r -> r.Obs.Counters.alternate_rejections) runs));
            ("rejections_by_link",
             Obs.Jsonu.Obj
               (List.map
                  (fun (link, n) -> (string_of_int link, Obs.Jsonu.Int n))
                  (pooled_rejections runs))) ]
      in
      let doc =
        Obs.Jsonu.Obj
          [ ("file", Obs.Jsonu.String file);
            ("events", Obs.Jsonu.Int (Obs.Counters.total_events counters));
            ("runs",
             Obs.Jsonu.Int (List.length (Obs.Counters.runs counters)));
            ("policies", Obs.Jsonu.List (List.map policy_json groups)) ]
      in
      print_endline (Obs.Jsonu.to_string doc)
    | `Text ->
      Format.fprintf ppf "%s: %d events, %d runs, %d policies@." file
        (Obs.Counters.total_events counters)
        (List.length (Obs.Counters.runs counters))
        (List.length groups);
      List.iter
        (fun (policy, runs) ->
          let blocking =
            Stats.summarize (List.map Obs.Counters.blocking runs)
          in
          let alt =
            Stats.summarize (List.map Obs.Counters.alternate_fraction runs)
          in
          Format.fprintf ppf
            "  %-22s blocking %.4f +/- %.4f   alternate-routed %.1f%%@."
            policy blocking.Stats.mean blocking.Stats.std_error
            (100. *. alt.Stats.mean);
          let attempts = sum (fun r -> r.Obs.Counters.primary_attempts) runs in
          let admitted = sum (fun r -> r.Obs.Counters.primary_admitted) runs in
          if attempts > 0 then
            Format.fprintf ppf
              "    primary attempts %d admitted %d (%.1f%%)@." attempts
              admitted
              (100. *. float_of_int admitted /. float_of_int attempts);
          let rejections =
            sum (fun r -> r.Obs.Counters.alternate_rejections) runs
          in
          if rejections > 0 then begin
            let by_link =
              pooled_rejections runs
              |> List.sort (fun (_, a) (_, b) -> compare b a)
            in
            let top = List.filteri (fun i _ -> i < 8) by_link in
            Format.fprintf ppf
              "    trunk-reservation rejections %d on %d links (top:%s%s)@."
              rejections (List.length by_link)
              (String.concat ""
                 (List.map
                    (fun (link, n) -> Printf.sprintf " %d=%d" link n)
                    top))
              (if List.length by_link > 8 then " ..." else "")
          end)
        groups
  in
  Cmd.v
    (Cmd.info "summarize"
       ~doc:
         "Reconstruct blocking and overflow statistics from a trace file \
          (warm-up windows honoured per run, so the figures match the \
          originating simulation)")
    Term.(const run $ file $ format_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect JSON-lines event traces")
    [ trace_summarize_cmd ]

(* ------------------------------------------------------------------ *)
(* arn adaptive *)

let adaptive_cmd =
  let scale =
    let doc = "Load scale on the nominal NSFNet matrix." in
    Arg.(value & opt float 1.0 & info [ "load"; "l" ] ~doc)
  in
  let run scale quick =
    let config = config_of_quick quick in
    Format.fprintf ppf
      "NSFNet at %.1fx nominal: a-priori vs estimated protection (%s)@."
      scale
      (Arnet_experiments.Config.describe config);
    Arnet_experiments.Robustness.print_adaptive ppf
      (Arnet_experiments.Robustness.adaptive ~scale ~config ())
  in
  Cmd.v
    (Cmd.info "adaptive"
       ~doc:"Distributed load estimation vs a-priori protection levels")
    Term.(const run $ scale $ quick_arg)

(* ------------------------------------------------------------------ *)
(* arn mdp *)

let mdp_cmd =
  let load =
    let doc = "Erlangs per stream on the triangle model." in
    Arg.(value & opt float 7. & info [ "load"; "l" ] ~doc)
  in
  let capacity =
    let doc = "Capacity of each of the three links." in
    Arg.(value & opt int 8 & info [ "capacity"; "c" ] ~doc)
  in
  let run load capacity =
    let module M = Arnet_mdp.Loss_mdp in
    let m =
      M.make
        ~capacities:(Array.make 3 capacity)
        ~arrivals:(Array.make 3 load)
        ~routes:[ (0, [ 0 ]); (1, [ 1 ]); (2, [ 2 ]); (2, [ 0; 1 ]) ]
    in
    Format.fprintf ppf
      "directed triangle, C=%d, %g Erlangs/stream (%d states, %d routes)@."
      capacity load (M.state_count m) (M.route_count m);
    let r = Protection.level ~offered:load ~capacity ~h:2 in
    Format.fprintf ppf "  %-22s %.6f@." "optimal" (M.optimal_blocking m);
    Format.fprintf ppf "  %-22s %.6f@." "single-path"
      (M.policy_blocking m (M.single_path_policy m));
    Format.fprintf ppf "  %-22s %.6f@." "uncontrolled"
      (M.policy_blocking m (M.uncontrolled_policy m));
    Format.fprintf ppf "  %-22s %.6f  (r=%d)@." "controlled (H=2)"
      (M.policy_blocking m
         (M.controlled_policy m ~reserves:(Array.make 3 r)))
      r;
    match M.alternate_acceptance_threshold m ~od:2 with
    | Some r_star ->
      Format.fprintf ppf
        "  optimal policy is an occupancy threshold with r* = %d@." r_star
    | None ->
      Format.fprintf ppf
        "  optimal policy is not a pure occupancy threshold (depends on \
         call composition)@."
  in
  Cmd.v
    (Cmd.info "mdp"
       ~doc:"Exact Markov-decision analysis of the triangle model")
    Term.(const run $ load $ capacity)

(* ------------------------------------------------------------------ *)
(* arn serve / arn load *)

module Service = Arnet_service

let addr_conv =
  Arg.conv'
    ( Service.Server.addr_of_string,
      fun ppf a -> Format.pp_print_string ppf (Service.Server.addr_to_string a)
    )

let default_addr = Service.Server.Tcp ("127.0.0.1", 4791)

let serve_cmd =
  let listen =
    let doc =
      "Address to listen on: $(b,unix:PATH), $(b,tcp:HOST:PORT), \
       $(b,HOST:PORT) or a bare port (loopback)."
    in
    Arg.(value & opt addr_conv default_addr & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let h =
    let doc = "Maximum alternate hop length H for the route table." in
    Arg.(value & opt (some int) None & info [ "max-hops"; "H" ] ~doc)
  in
  let scale =
    let doc = "Scale factor on the planning traffic matrix." in
    Arg.(value & opt float 1.0 & info [ "scale"; "s" ] ~doc)
  in
  let demand =
    let doc = "Per-pair planning demand in Erlangs (synthetic networks)." in
    Arg.(value & opt float 80. & info [ "demand"; "d" ] ~doc)
  in
  let unprotected =
    let doc =
      "Start with no planning matrix: every protection level begins at 0 \
       and converges as the estimators observe live demand (reload to \
       apply)."
    in
    Arg.(value & flag & info [ "unprotected" ] ~doc)
  in
  let seed =
    let doc =
      "Run seed, echoed in the banner.  The daemon itself draws no \
       randomness — decisions depend only on the command stream — so \
       matching seeds between $(b,arn serve) and $(b,arn load) labels \
       the pair of logs as one reproducible run."
    in
    Arg.(value & opt int 0 & info [ "seed" ] ~doc)
  in
  let reload_every =
    let doc =
      "Recompute the Theorem-1 protection levels automatically after \
       every $(docv) admission decisions (RELOAD on the wire works \
       either way)."
    in
    Arg.(
      value & opt (some int) None & info [ "reload-every" ] ~docv:"N" ~doc)
  in
  let snapshot =
    let doc =
      "Write the drained state (spec, occupancy, reserves, failures, \
       counters) to $(docv) through lib/serial when the daemon exits."
    in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let trace_file =
    let doc =
      "Stream the daemon's decision events (arrivals, per-alternate \
       rejections, admits, blocks, departures) as JSON lines to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_file =
    let doc =
      "Write a Prometheus text-format snapshot of the service metrics to \
       $(docv) when the daemon drains."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let failure_script =
    let doc =
      "Replay a timed failure script against the live daemon: each line \
       is $(b,TIME FAIL|REPAIR LINK) (virtual time; $(b,#) comments).  \
       Events fire as the virtual clock passes their timestamp, before \
       the triggering SETUP is decided, so a run with a script is as \
       reproducible as one driven by FAIL/REPAIR on the wire.  Link ids \
       never move, so $(b,LINK ADD) and $(b,LINK DEL) work alongside a \
       script; an event on a link that $(b,LINK DEL) removed is skipped."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "failure-script" ] ~docv:"FILE" ~doc)
  in
  let window =
    let doc = "Demand-estimator window length (virtual time)." in
    Arg.(value & opt (some float) None & info [ "window" ] ~doc)
  in
  let smoothing =
    let doc = "Demand-estimator smoothing factor in (0, 1]." in
    Arg.(value & opt (some float) None & info [ "smoothing" ] ~doc)
  in
  let telemetry =
    let doc =
      "Serve live telemetry over HTTP/1.0 on a second socket (same \
       address forms as $(b,--listen)): $(b,GET /metrics) is the \
       Prometheus exposition of the full registry — command latency \
       histograms, per-link occupancy/capacity/r^k gauges, per-pair \
       accept/block counters — rendered from the running daemon, \
       $(b,GET /healthz) a liveness probe, $(b,GET /statz) a JSON \
       status document including the slow-command log."
    in
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "telemetry" ] ~docv:"ADDR" ~doc)
  in
  let slow_ms =
    let doc =
      "Slow-command threshold in milliseconds: commands at or above it \
       enter the slow log (shown by $(b,/statz)) and are logged at \
       warn level."
    in
    Arg.(value & opt float 10. & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let log_level =
    let level_conv =
      Arg.conv
        ( (fun s ->
            match Obs.Logger.level_of_string s with
            | Some l -> Ok l
            | None ->
              Error
                (`Msg
                   (Printf.sprintf
                      "unknown level %S (debug, info, warn, error)" s))),
          fun ppf l ->
            Format.pp_print_string ppf (Obs.Logger.level_to_string l) )
    in
    let doc = "Log threshold: debug, info, warn or error." in
    Arg.(
      value & opt level_conv Obs.Logger.Info
      & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let log_json =
    let doc = "Log JSONL (one JSON object per line) instead of text." in
    Arg.(value & flag & info [ "log-json" ] ~doc)
  in
  let run network capacity listen h scale demand unprotected seed
      reload_every snapshot trace_file failure_script metrics_file window
      smoothing telemetry slow_ms log_level log_json =
    let logger =
      Obs.Logger.create ~level:log_level
        ~format:(if log_json then Obs.Logger.Jsonl else Obs.Logger.Text)
        stderr
    in
    let net = load_network ~cmd:"arn serve" network capacity in
    let g = net.graph in
    let matrix =
      if unprotected then None
      else Some (build_matrix network net ~scale ~demand)
    in
    let metrics =
      Service.Service_metrics.create ~slow_threshold:(slow_ms /. 1000.) ()
    in
    let trace_sink = Option.map Obs.Jsonl.sink_of_file trace_file in
    (* every decision event feeds the live registry; the JSONL trace
       tees off the same stream when requested *)
    let observer =
      let to_metrics = Service.Service_metrics.observer metrics in
      match Option.map Obs.Sink.observer trace_sink with
      | None -> to_metrics
      | Some to_trace ->
        fun ev ->
          to_trace ev;
          to_metrics ev
    in
    let failure_script =
      Option.map
        (fun path ->
          match Arnet_sim.Script.of_file path with
          | Ok s -> s
          | Error msg ->
            Printf.eprintf "arn serve: %s\n" msg;
            exit 2)
        failure_script
    in
    let state =
      try
        Service.State.create ?h ?matrix ?window ?smoothing ?reload_every
          ?failure_script ~observer g
      with Invalid_argument msg ->
        Printf.eprintf "arn serve: %s\n" msg;
        exit 2
    in
    (* bind errors surface before [on_listen]; anything later failed a
       running daemon *)
    let listening = ref false in
    let on_listen addr =
      listening := true;
      Obs.Logger.info logger "arn serve: listening"
        ~fields:
          [ ("network", Obs.Jsonu.String (network_to_string network));
            ("nodes", Obs.Jsonu.Int (Graph.node_count g));
            ("links", Obs.Jsonu.Int (Graph.link_count g));
            ("h", Obs.Jsonu.Int (Route_table.h (Service.State.routes state)));
            ("seed", Obs.Jsonu.Int seed);
            ("addr", Obs.Jsonu.String (Service.Server.addr_to_string addr)) ]
    in
    (try
       Service.Server.serve ~metrics ?telemetry ~logger ?snapshot ~on_listen
         ~state listen
     with Unix.Unix_error (err, fn, arg) ->
       Printf.eprintf "arn serve: %s: %s (%s %s)\n"
         (if !listening then "serve failed" else "cannot listen")
         (Unix.error_message err) fn arg;
       exit 2);
    Option.iter Obs.Sink.close trace_sink;
    let wrote path =
      Obs.Logger.info logger "wrote"
        ~fields:[ ("path", Obs.Jsonu.String path) ]
    in
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Service.Service_metrics.to_prometheus metrics state);
        close_out oc;
        wrote path)
      metrics_file;
    Option.iter wrote trace_file;
    Option.iter wrote snapshot;
    let s = Service.State.stats state in
    Obs.Logger.info logger "arn serve: drained"
      ~fields:
        [ ("accepted", Obs.Jsonu.Int s.Service.Wire.accepted);
          ("blocked", Obs.Jsonu.Int s.Service.Wire.blocked);
          ("torn_down", Obs.Jsonu.Int s.Service.Wire.torn_down);
          ("dropped", Obs.Jsonu.Int s.Service.Wire.dropped);
          ("failovers", Obs.Jsonu.Int s.Service.Wire.failovers);
          ("reloads", Obs.Jsonu.Int s.Service.Wire.reloads) ]
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the live admission-control daemon (SETUP/TEARDOWN over a \
          line protocol; FAIL/REPAIR reroute, RELOAD reprotects, DRAIN \
          exits cleanly; --telemetry serves live /metrics)")
    Term.(
      const run $ network_arg $ capacity_arg $ listen $ h $ scale $ demand
      $ unprotected $ seed $ reload_every $ snapshot $ trace_file
      $ failure_script $ metrics_file $ window $ smoothing $ telemetry
      $ slow_ms $ log_level $ log_json)

let load_cmd =
  let connect =
    let doc = "Daemon address (same forms as $(b,arn serve --listen))." in
    Arg.(
      value & opt addr_conv default_addr & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let seed =
    let doc = "Master seed for the Poisson workload." in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)
  in
  let calls =
    let doc = "Number of call arrivals to send." in
    Arg.(value & opt int 10_000 & info [ "calls" ] ~doc)
  in
  let connections =
    let doc =
      "Shard the workload round-robin across $(docv) concurrent \
       connections (one thread each).  More than one trades the \
       single-connection determinism for a throughput measurement."
    in
    Arg.(value & opt int 1 & info [ "connections" ] ~docv:"N" ~doc)
  in
  let scale =
    let doc = "Scale factor on the offered traffic matrix." in
    Arg.(value & opt float 1.0 & info [ "scale"; "s" ] ~doc)
  in
  let demand =
    let doc = "Per-pair offered demand in Erlangs (synthetic networks)." in
    Arg.(value & opt float 80. & info [ "demand"; "d" ] ~doc)
  in
  let no_timestamps =
    let doc =
      "Send untimed SETUPs: the daemon's virtual clock (and hence its \
       demand estimators) stands still."
    in
    Arg.(value & flag & info [ "no-timestamps" ] ~doc)
  in
  let retry_for =
    let doc = "Seconds to retry a refused connection (daemon start-up)." in
    Arg.(value & opt float 5.0 & info [ "retry-for" ] ~doc)
  in
  let json =
    let doc = "Emit the results as JSON on stdout instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let drain =
    let doc =
      "Send DRAIN when the run finishes.  The generator tears down every \
       call it admitted, so a daemon serving only this client exits \
       cleanly right away."
    in
    Arg.(value & flag & info [ "drain" ] ~doc)
  in
  let binary =
    let doc =
      "Upgrade each connection with HELLO binary and drive the binary \
       batch framing instead of the line protocol."
    in
    Arg.(value & flag & info [ "binary" ] ~doc)
  in
  let batch =
    let doc =
      "Commands pipelined per binary frame (needs $(b,--binary)): one \
       write/read syscall round per batch of $(docv)."
    in
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let run network capacity connect seed calls connections scale demand
      no_timestamps retry_for json drain binary batch =
    let net = load_network ~cmd:"arn load" network capacity in
    let matrix = build_matrix network net ~scale ~demand in
    let result =
      try
        Service.Loadgen.run ~connections ~timestamps:(not no_timestamps)
          ~retry_for ~binary ~batch ~seed ~calls ~matrix ~addr:connect ()
      with
      | Invalid_argument msg ->
        Printf.eprintf "arn load: %s\n" msg;
        exit 2
      | Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "arn load: cannot reach %s: %s (%s %s)\n"
          (Service.Server.addr_to_string connect)
          (Unix.error_message err) fn arg;
        exit 2
    in
    if drain then begin
      let ic, oc = Service.Server.connect ~retry_for connect in
      (match Service.Server.request ic oc Service.Wire.Drain with
      | Service.Wire.Done -> ()
      | r ->
        Printf.eprintf "arn load: DRAIN answered %s\n"
          (Service.Wire.print_response r);
        exit 1);
      close_out_noerr oc
    end;
    if json then
      print_endline (Obs.Jsonu.to_string (Service.Loadgen.to_json result))
    else Format.fprintf ppf "%a@." Service.Loadgen.print result
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a daemon with a seeded Poisson workload and report \
          accept/block counts and wire-latency quantiles")
    Term.(
      const run $ network_arg $ capacity_arg $ connect $ seed $ calls
      $ connections $ scale $ demand $ no_timestamps $ retry_for $ json
      $ drain $ binary $ batch)

let () =
  let info =
    Cmd.info "arn" ~version:"1.0.0"
      ~doc:
        "Controlled alternate routing in general-mesh loss networks \
         (SIGCOMM '94 reproduction)"
  in
  let group =
    Cmd.group info
      [ erlang_cmd; protection_cmd; paths_cmd; topology_cmd; fit_cmd;
        bound_cmd; topo_cmd; simulate_cmd; experiment_cmd; dalfar_cmd; spec_cmd;
        lint_cmd; adaptive_cmd; mdp_cmd; trace_cmd; serve_cmd; load_cmd ]
  in
  exit (Cmd.eval group)
