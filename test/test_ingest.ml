(* lib/ingest: GML and dot codecs (fixture goldens, malformed inputs,
   print/parse round-trip laws), the ISP-mesh generator, gravity
   traffic, and an end-to-end simulate smoke over a real fixture. *)

open Arnet_topology
open Arnet_ingest

let fixture name =
  Filename.concat (Filename.concat "../lib/ingest" "fixtures") name

(* ------------------------------------------------------------------ *)
(* fixture goldens *)

let test_abilene_golden () =
  let t = Gml.load (fixture "Abilene.gml") in
  Alcotest.(check string) "name" "Abilene" t.Topo.name;
  Alcotest.(check int) "nodes" 11 (Graph.node_count t.Topo.graph);
  Alcotest.(check int) "links" 28 (Graph.link_count t.Topo.graph);
  Alcotest.(check int) "no parallel edges" 0 t.Topo.merged_parallel;
  Alcotest.(check int) "no self loops" 0 t.Topo.dropped_self_loops;
  Alcotest.(check string) "first label" "Seattle" (Graph.label t.Topo.graph 0);
  Alcotest.(check bool) "symmetric" true (Graph.is_symmetric t.Topo.graph);
  Alcotest.(check bool) "strongly connected" true
    (Graph.is_strongly_connected t.Topo.graph);
  Array.iter
    (fun l -> Alcotest.(check int) "capacity" 100 l.Link.capacity)
    (Graph.links t.Topo.graph);
  Alcotest.(check bool) "all nodes placed" true
    (Array.for_all Option.is_some t.Topo.coords);
  let s = Topo.summarize t in
  Alcotest.(check int) "summary nodes" 11 s.Topo.nodes;
  Alcotest.(check int) "summary with_coords" 11 s.Topo.with_coords;
  Alcotest.(check int) "summary total capacity" 2800 s.Topo.total_capacity

let test_geant_golden () =
  let t = Gml.load (fixture "Geant.gml") in
  let g = t.Topo.graph in
  Alcotest.(check string) "name" "Geant" t.Topo.name;
  (* the file numbers its nodes 1..12: import renumbers densely *)
  Alcotest.(check int) "nodes" 12 (Graph.node_count g);
  Alcotest.(check int) "links" 34 (Graph.link_count g);
  Alcotest.(check int) "duplicate London-Paris edge merged" 1
    t.Topo.merged_parallel;
  (* node 0 is the file's id 1 (London), node 1 its id 2 (Paris) *)
  Alcotest.(check string) "dense renumbering" "London" (Graph.label g 0);
  Alcotest.(check int) "merged capacities sum (60 + 60)" 120
    (Graph.find_link_exn g ~src:0 ~dst:1).Link.capacity;
  (* the Prague -> Budapest edge carries no capacity attribute *)
  let prague = 8 and budapest = 9 in
  Alcotest.(check string) "prague" "Prague" (Graph.label g prague);
  Alcotest.(check int) "defaulted capacity" Gml.default_capacity
    (Graph.find_link_exn g ~src:prague ~dst:budapest).Link.capacity;
  Alcotest.(check bool) "undirected file imports symmetric" true
    (Graph.is_symmetric g);
  Alcotest.(check bool) "strongly connected" true
    (Graph.is_strongly_connected g)

(* ------------------------------------------------------------------ *)
(* malformed inputs parse to Error, never an exception leak *)

let check_gml_error name text =
  match Gml.parse text with
  | exception Gml.Error _ -> ()
  | _ -> Alcotest.failf "%s: parsed" name

let check_dot_error name text =
  match Dot.parse text with
  | exception Dot.Error _ -> ()
  | _ -> Alcotest.failf "%s: parsed" name

let test_gml_errors () =
  check_gml_error "no graph block" "node [ id 0 ]";
  check_gml_error "unclosed block" "graph [ node [ id 0 ]";
  check_gml_error "node without id" "graph [ node [ label \"x\" ] ]";
  check_gml_error "duplicate node id"
    "graph [ node [ id 0 ] node [ id 0 ] ]";
  check_gml_error "edge to unknown node"
    "graph [ node [ id 0 ] edge [ source 0 target 7 ] ]";
  check_gml_error "negative capacity"
    "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 \
     capacity -3 ] ]";
  check_gml_error "unterminated string" "graph [ label \"oops ]";
  check_gml_error "no nodes" "graph [ ]";
  check_gml_error "directed, no nodes" "graph [ directed 1 ]"

let test_dot_errors () =
  check_dot_error "not a graph" "strict {}";
  check_dot_error "unclosed brace" "digraph g { a -> b ";
  check_dot_error "dangling arrow" "digraph g { a -> }";
  check_dot_error "unclosed attrs" "digraph g { a -> b [capacity=3 }";
  check_dot_error "unterminated string" "digraph \"g {}";
  check_dot_error "no nodes" "digraph g { }";
  check_dot_error "only attributes" "graph g { rankdir=LR; node [shape=box] }"

(* ------------------------------------------------------------------ *)
(* dot semantics: chains, undirected graphs, dir=both, merging *)

let test_dot_semantics () =
  let t =
    Dot.parse
      "// a comment\n\
       digraph backbone {\n\
      \  core [label=\"Core router\", lon=\"-3.5\", lat=\"40.25\"];\n\
      \  a -> b -> core [capacity=7];  /* chain: two links */\n\
      \  a -> a;                       # self loop, dropped\n\
      \  b -> core [capacity=5];       // parallel with the chain edge\n\
      \  core -> a [dir=both, label=\"9\"];\n\
       }"
  in
  let g = t.Topo.graph in
  Alcotest.(check string) "name" "backbone" t.Topo.name;
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  (* a->b, b->core (7 + 5 merged), core->a, a->core *)
  Alcotest.(check int) "links" 4 (Graph.link_count g);
  Alcotest.(check int) "self loop dropped" 1 t.Topo.dropped_self_loops;
  Alcotest.(check int) "parallel merged" 1 t.Topo.merged_parallel;
  Alcotest.(check string) "label attr wins" "Core router" (Graph.label g 0);
  Alcotest.(check string) "name is the default label" "a" (Graph.label g 1);
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
    "coords from lon/lat" (Some (-3.5, 40.25)) t.Topo.coords.(0);
  Alcotest.(check int) "chain attr applies to every edge" 7
    (Graph.find_link_exn g ~src:1 ~dst:2).Link.capacity;
  Alcotest.(check int) "chain edge merges with the parallel one" 12
    (Graph.find_link_exn g ~src:2 ~dst:0).Link.capacity;
  Alcotest.(check int) "dir=both, numeric label as capacity" 9
    (Graph.find_link_exn g ~src:0 ~dst:1).Link.capacity;
  Alcotest.(check int) "dir=both twin" 9
    (Graph.find_link_exn g ~src:1 ~dst:0).Link.capacity;
  (* an undirected graph doubles every edge *)
  let u = Dot.parse "graph ring { a -- b -- c; c -- a; }" in
  Alcotest.(check int) "undirected links" 6 (Graph.link_count u.Topo.graph);
  Alcotest.(check bool) "undirected is symmetric" true
    (Graph.is_symmetric u.Topo.graph)

let test_dot_reads_graph_to_dot () =
  (* the library's own exporter speaks the dialect the parser reads *)
  let g = Nsfnet.graph () in
  let t = Dot.parse (Graph.to_dot g) in
  Alcotest.(check int) "nodes" (Graph.node_count g)
    (Graph.node_count t.Topo.graph);
  Alcotest.(check int) "links" (Graph.link_count g)
    (Graph.link_count t.Topo.graph);
  Graph.iter_links
    (fun l ->
      let l' =
        Graph.find_link_exn t.Topo.graph ~src:l.Link.src ~dst:l.Link.dst
      in
      Alcotest.(check int) "capacity" l.Link.capacity l'.Link.capacity)
    g

(* ------------------------------------------------------------------ *)
(* round-trip laws: parse (print t) = t for both codecs *)

(* random topologies over the codecs' full value space: optional
   coordinates (including long-fraction floats), sparse link sets with
   arbitrary capacities, labels over a safe charset *)
let topo_gen =
  QCheck.Gen.(
    let label_gen =
      string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 6)
    in
    let coord = map (fun n -> float_of_int n /. 16.) (int_range (-800) 800) in
    int_range 2 8 >>= fun nodes ->
    array_size (return nodes) label_gen >>= fun labels ->
    array_size (return nodes)
      (oneof [ return None; map Option.some (pair coord coord) ])
    >>= fun coords ->
    let pairs =
      List.concat_map
        (fun s ->
          List.filter_map
            (fun d -> if s = d then None else Some (s, d))
            (List.init nodes Fun.id))
        (List.init nodes Fun.id)
    in
    list_size (return (List.length pairs)) (option (int_bound 500))
    >>= fun caps ->
    let links =
      List.filter_map
        (fun ((src, dst), cap) ->
          Option.map (fun capacity -> (src, dst, capacity)) cap)
        (List.combine pairs caps)
    in
    let links =
      List.mapi
        (fun id (src, dst, capacity) -> Link.make ~id ~src ~dst ~capacity)
        links
    in
    label_gen >>= fun name ->
    return
      (Topo.make ~name ~coords
         (Graph.create ~labels ~nodes links)))

let topo_arbitrary =
  QCheck.make topo_gen ~print:(fun t ->
      Printf.sprintf "%s (%d nodes, %d links)" t.Topo.name
        (Graph.node_count t.Topo.graph)
        (Graph.link_count t.Topo.graph))

let prop_gml_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Gml.parse (Gml.to_gml t) = t"
    topo_arbitrary
    (fun t -> Topo.equal (Gml.parse (Gml.to_gml t)) t)

let prop_dot_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Dot.parse (Dot.to_dot t) = t"
    topo_arbitrary
    (fun t -> Topo.equal (Dot.parse (Dot.to_dot t)) t)

let prop_cross_codec =
  (* a GML-imported topology and its dot re-export describe one graph *)
  QCheck.Test.make ~count:100 ~name:"Gml.parse (to_gml (Dot.parse (to_dot)))"
    topo_arbitrary
    (fun t -> Topo.equal (Gml.parse (Gml.to_gml (Dot.parse (Dot.to_dot t)))) t)

let test_fixture_roundtrips () =
  List.iter
    (fun name ->
      let t = Gml.load (fixture name) in
      Alcotest.(check bool) (name ^ " gml fixpoint") true
        (Topo.equal (Gml.parse (Gml.to_gml t)) t);
      Alcotest.(check string) (name ^ " canonical gml is a fixpoint")
        (Gml.to_gml t)
        (Gml.to_gml (Gml.parse (Gml.to_gml t)));
      Alcotest.(check bool) (name ^ " dot fixpoint") true
        (Topo.equal (Dot.parse (Dot.to_dot t)) t);
      Alcotest.(check string) (name ^ " canonical dot is a fixpoint")
        (Dot.to_dot t)
        (Dot.to_dot (Dot.parse (Dot.to_dot t))))
    [ "Abilene.gml"; "Geant.gml" ]

(* ------------------------------------------------------------------ *)
(* Topo metadata *)

let test_normalized_coords () =
  let g = Builders.ring ~nodes:3 ~capacity:10 in
  let t =
    Topo.make ~coords:[| Some (10., 5.); Some (30., 5.); Some (20., 5.) |] g
  in
  (match Topo.normalized_coords t with
  | None -> Alcotest.fail "expected coordinates"
  | Some c ->
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) "min" (0., 0.5) c.(0);
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) "max" (1., 0.5) c.(1);
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) "mid" (0.5, 0.5) c.(2));
  let partial = Topo.make ~coords:[| Some (0., 0.); None; None |] g in
  Alcotest.(check bool) "partial coords do not normalize" true
    (Topo.normalized_coords partial = None);
  (match Topo.make ~coords:[| Some (nan, 0.); None; None |] g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan coordinate accepted");
  match Topo.make ~coords:[| Some (0., 0.) |] g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short coords accepted"

(* ------------------------------------------------------------------ *)
(* the ISP-mesh generator *)

let test_random_mesh () =
  let nodes = 120 and degree = 4 in
  let t = Mesh.random_mesh ~seed:7 ~nodes ~degree () in
  let g = t.Topo.graph in
  Alcotest.(check int) "nodes" nodes (Graph.node_count g);
  Alcotest.(check bool) "symmetric" true (Graph.is_symmetric g);
  Alcotest.(check bool) "strongly connected" true
    (Graph.is_strongly_connected g);
  Alcotest.(check bool) "all nodes placed" true
    (Array.for_all Option.is_some t.Topo.coords);
  for v = 0 to nodes - 1 do
    if Graph.degree_out g v > degree then
      Alcotest.failf "node %d exceeds the degree bound: %d" v
        (Graph.degree_out g v)
  done;
  (* a pure function of its parameters *)
  Alcotest.(check bool) "deterministic" true
    (Topo.equal t (Mesh.random_mesh ~seed:7 ~nodes ~degree ()));
  Alcotest.(check bool) "seed matters" false
    (Topo.equal t (Mesh.random_mesh ~seed:8 ~nodes ~degree ()));
  (match Mesh.random_mesh ~nodes:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nodes=1 accepted");
  match Mesh.random_mesh ~nodes:4 ~degree:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "degree=1 accepted"

let test_gravity () =
  let t = Mesh.random_mesh ~nodes:30 () in
  let m = Mesh.gravity t in
  Alcotest.(check (float 1e-6)) "default total is 5 Erlangs per node" 150.
    (Arnet_traffic.Matrix.total m);
  Alcotest.(check (float 1e-6)) "total override" 42.
    (Arnet_traffic.Matrix.total (Mesh.gravity ~total:42. t));
  for v = 0 to 29 do
    Alcotest.(check (float 0.)) "zero diagonal" 0.
      (Arnet_traffic.Matrix.get m v v)
  done

(* ------------------------------------------------------------------ *)
(* imported fixtures drive the whole pipeline *)

let test_fixture_simulate_smoke () =
  let t = Gml.load (fixture "Abilene.gml") in
  let g = t.Topo.graph in
  let matrix = Arnet_traffic.Matrix.scale (Mesh.gravity t) 12. in
  let routes = Arnet_paths.Route_table.build ~h:4 g in
  let policy = Arnet_core.Scheme.controlled_auto ~matrix routes in
  let trace =
    Arnet_sim.Trace.generate
      ~rng:(Arnet_sim.Rng.create ~seed:11)
      ~duration:30. matrix
  in
  let stats = Arnet_sim.Engine.run ~warmup:5. ~graph:g ~policy trace in
  Alcotest.(check bool) "calls were offered" true
    (stats.Arnet_sim.Stats.offered > 0);
  Alcotest.(check bool) "blocking is a probability" true
    (let b = Arnet_sim.Stats.blocking stats in
     b >= 0. && b <= 1.)

(* degenerate files through the real binary: a typed one-line error
   and exit 2, never an uncaught exception (exit 125) *)
let run_arn args =
  let err = Filename.temp_file "arnet-ingest" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv = Array.of_list ("../bin/arn.exe" :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd; Unix.close null)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin null fd)
  in
  let status = snd (Unix.waitpid [] pid) in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, stderr)

let with_topology_file ext text f =
  let path = Filename.temp_file "arnet-topo" ext in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* exit 2 with one stderr line that starts with the subcommand's own
   [prefix] and, when given, names [count] *)
let check_usage_error ?count what ~prefix args =
  let status, stderr = run_arn args in
  Alcotest.(check bool)
    (what ^ ": exit 2") true (status = Unix.WEXITED 2);
  Alcotest.(check int)
    (what ^ ": one stderr line") 1
    (List.length (String.split_on_char '\n' (String.trim stderr)));
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S starts with %S" what stderr prefix)
    true
    (String.starts_with ~prefix stderr);
  Option.iter
    (fun count ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %S" what stderr count)
        true
        (String.ends_with ~suffix:count (String.trim stderr)))
    count

let test_cli_degenerate_files () =
  let network_cmds path =
    [ ("simulate", [ "simulate"; "--quick"; "--topology"; path ]);
      ("lint", [ "lint"; "--topology"; path ]) ]
  in
  List.iter
    (fun (ext, text) ->
      with_topology_file ext text (fun path ->
          List.iter
            (fun cmd ->
              check_usage_error (cmd ^ " " ^ ext) ~prefix:"arn topo: "
                [ "topo"; cmd; path ])
            [ "import"; "stats"; "export" ];
          List.iter
            (fun (cmd, args) ->
              check_usage_error (cmd ^ " " ^ ext) ~prefix:("arn " ^ cmd ^ ": ")
                args)
            (network_cmds path)))
    [ (".gml", "graph [ ]"); (".dot", "digraph g { }") ];
  List.iter
    (fun (ext, text) ->
      with_topology_file ext text (fun path ->
          List.iter
            (fun (cmd, args) ->
              check_usage_error ("one-node " ^ cmd ^ " " ^ ext)
                ~prefix:("arn " ^ cmd ^ ": ") ~count:"got 1" args)
            (network_cmds path)))
    [ (".gml", "graph [ node [ id 0 ] ]"); (".dot", "digraph g { a; }") ]

(* [-n file:PATH] naming a missing or malformed spec: exit 2 (lint's 1
   means findings) and one stderr line that names the file *)
let test_cli_bad_spec_files () =
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "arnet-no-such-file.spec"
  in
  if Sys.file_exists missing then Sys.remove missing;
  with_topology_file ".spec" "nodes 3\nlink 0 1 x\n" (fun malformed ->
      List.iter
        (fun path ->
          List.iter
            (fun (cmd, args) ->
              check_usage_error
                (cmd ^ " " ^ Filename.basename path)
                ~prefix:(Printf.sprintf "arn %s: %s" cmd path)
                (args @ [ "-n"; "file:" ^ path ]))
            [ ("simulate", [ "simulate"; "--quick" ]);
              ("paths", [ "paths"; "0"; "1" ]);
              ("lint", [ "lint" ]) ])
        [ missing; malformed ])

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ingest"
    [ ("fixtures",
       [ Alcotest.test_case "Abilene golden" `Quick test_abilene_golden;
         Alcotest.test_case "Geant golden" `Quick test_geant_golden;
         Alcotest.test_case "fixture round-trips" `Quick
           test_fixture_roundtrips;
         Alcotest.test_case "simulate smoke" `Quick
           test_fixture_simulate_smoke ]);
      ("errors",
       [ Alcotest.test_case "malformed gml" `Quick test_gml_errors;
         Alcotest.test_case "malformed dot" `Quick test_dot_errors;
         Alcotest.test_case "degenerate files through arn" `Quick
           test_cli_degenerate_files;
         Alcotest.test_case "bad spec files through arn" `Quick
           test_cli_bad_spec_files ]);
      ("dot",
       [ Alcotest.test_case "semantics" `Quick test_dot_semantics;
         Alcotest.test_case "reads Graph.to_dot" `Quick
           test_dot_reads_graph_to_dot ]);
      ("roundtrip",
       [ qcheck prop_gml_roundtrip;
         qcheck prop_dot_roundtrip;
         qcheck prop_cross_codec ]);
      ("topo",
       [ Alcotest.test_case "normalized coords" `Quick
           test_normalized_coords ]);
      ("mesh",
       [ Alcotest.test_case "random mesh" `Quick test_random_mesh;
         Alcotest.test_case "gravity" `Quick test_gravity ]) ]
