(* End-to-end checks of the paper's headline claims, at reduced scale:
   the qualitative results must already be visible with a few seeds. *)

open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core

let config =
  { Arnet_experiments.Config.seeds = [ 1; 2; 3 ];
    duration = 60.;
    warmup = 10. }

let run_schemes ~graph ~routes ~matrix ~with_ott =
  let policies =
    [ Scheme.single_path routes;
      Scheme.uncontrolled routes;
      Scheme.controlled_auto ~matrix routes ]
    @ (if with_ott then [ Scheme.ott_krishnan ~matrix routes ] else [])
  in
  let { Arnet_experiments.Config.seeds; duration; warmup } = config in
  Engine.replicate ~warmup ~seeds ~duration ~graph ~matrix ~policies ()
  |> List.map (fun (name, runs) -> (name, Stats.blocking_summary runs))

let mean results name = (List.assoc name results).Stats.mean

(* ------------------------------------------------------------------ *)

let test_quadrangle_headline () =
  let graph = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Route_table.build graph in
  (* moderate load: alternate routing must beat single-path *)
  let moderate = Matrix.uniform ~nodes:4 ~demand:80. in
  let r80 = run_schemes ~graph ~routes ~matrix:moderate ~with_ott:false in
  Alcotest.(check bool) "80E: uncontrolled beats single-path" true
    (mean r80 "uncontrolled" < mean r80 "single-path");
  Alcotest.(check bool) "80E: controlled beats single-path" true
    (mean r80 "controlled" < mean r80 "single-path");
  (* overload: uncontrolled collapses, controlled must not *)
  let overload = Matrix.uniform ~nodes:4 ~demand:100. in
  let r100 = run_schemes ~graph ~routes ~matrix:overload ~with_ott:false in
  Alcotest.(check bool) "100E: uncontrolled collapses past single-path" true
    (mean r100 "uncontrolled" > mean r100 "single-path");
  Alcotest.(check bool) "100E: controlled within noise of single-path" true
    (mean r100 "controlled" <= mean r100 "single-path" +. 0.01)

let test_quadrangle_guarantee_across_loads () =
  let graph = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Route_table.build graph in
  List.iter
    (fun load ->
      let matrix = Matrix.uniform ~nodes:4 ~demand:load in
      let r = run_schemes ~graph ~routes ~matrix ~with_ott:false in
      Alcotest.(check bool)
        (Printf.sprintf "guarantee at %g Erlangs" load)
        true
        (mean r "controlled" <= mean r "single-path" +. 0.012))
    [ 60.; 80.; 90.; 100.; 110. ]

let test_nsfnet_headline () =
  let routes, nominal = Arnet_experiments.Internet.nominal () in
  let graph = Route_table.graph routes in
  (* moderate load *)
  let moderate = Matrix.scale nominal 0.8 in
  let r = run_schemes ~graph ~routes ~matrix:moderate ~with_ott:false in
  Alcotest.(check bool) "0.8x: alternate routing beats single-path" true
    (mean r "uncontrolled" < mean r "single-path"
    && mean r "controlled" < mean r "single-path");
  (* overload *)
  let overload = Matrix.scale nominal 1.4 in
  let r' = run_schemes ~graph ~routes ~matrix:overload ~with_ott:true in
  Alcotest.(check bool) "1.4x: controlled never worse than single-path" true
    (mean r' "controlled" <= mean r' "single-path" +. 0.012);
  Alcotest.(check bool) "1.4x: ott-krishnan poor on the sparse mesh" true
    (mean r' "ott-krishnan" > mean r' "controlled");
  (* everything above the Erlang bound *)
  let bound = Arnet_bound.Erlang_bound.compute graph overload in
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s above erlang bound" name)
        true
        (s.Stats.mean +. 0.01 >= bound))
    r'

let test_nsfnet_link_failure_keeps_ordering () =
  let _, nominal = Arnet_experiments.Internet.nominal () in
  let graph =
    Graph.without_links (Nsfnet.graph ()) [ (2, 3); (3, 2) ]
  in
  let routes = Route_table.build graph in
  let matrix = Matrix.scale nominal 1.3 in
  let r = run_schemes ~graph ~routes ~matrix ~with_ott:false in
  Alcotest.(check bool) "controlled still never worse" true
    (mean r "controlled" <= mean r "single-path" +. 0.012)

let test_controlled_behaves_like_uncontrolled_at_low_load () =
  (* at low load protection thresholds are rarely hit: the two schemes
     should make nearly identical decisions *)
  let graph = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Route_table.build graph in
  let matrix = Matrix.uniform ~nodes:4 ~demand:60. in
  let r = run_schemes ~graph ~routes ~matrix ~with_ott:false in
  Alcotest.(check bool) "both near zero blocking" true
    (mean r "uncontrolled" < 0.005 && mean r "controlled" < 0.005)

let test_alternate_usage_shrinks_under_control () =
  (* at overload the controlled scheme routes fewer calls on alternates
     than the uncontrolled one — protection at work *)
  let graph = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Route_table.build graph in
  let matrix = Matrix.uniform ~nodes:4 ~demand:100. in
  let { Arnet_experiments.Config.seeds; duration; warmup } = config in
  let results =
    Engine.replicate ~warmup ~seeds ~duration ~graph ~matrix
      ~policies:
        [ Scheme.uncontrolled routes; Scheme.controlled_auto ~matrix routes ]
      ()
  in
  let alt name =
    (Stats.summarize
       (List.map Stats.alternate_fraction (List.assoc name results)))
      .Stats.mean
  in
  Alcotest.(check bool) "controlled uses fewer alternates" true
    (alt "controlled" < alt "uncontrolled")

let test_single_link_matches_erlang_b () =
  (* the fundamental calibration: an isolated M/M/C/C link simulated by
     the engine must reproduce the Erlang-B formula *)
  let capacity = 20 and offered = 16. in
  let graph =
    Graph.create ~nodes:2 [ Link.make ~id:0 ~src:0 ~dst:1 ~capacity ]
  in
  let routes = Route_table.build graph in
  let matrix =
    Matrix.make ~nodes:2 (fun i _ -> if i = 0 then offered else 0.)
  in
  let results =
    Engine.replicate ~warmup:10. ~seeds:(List.init 10 (fun i -> 100 + i))
      ~duration:210. ~graph ~matrix
      ~policies:[ Scheme.single_path routes ]
      ()
  in
  let s = Stats.blocking_summary (List.assoc "single-path" results) in
  let lo, hi = Stats.confidence_95 s in
  let analytic = Arnet_erlang.Erlang_b.blocking ~offered ~capacity in
  Alcotest.(check bool)
    (Printf.sprintf "Erlang B %.4f inside 95%% CI [%.4f, %.4f]" analytic lo hi)
    true
    (* allow a slightly widened interval: warm-up bias is small but real *)
    (analytic >= lo -. 0.005 && analytic <= hi +. 0.005)

let test_confidence_interval_basics () =
  let s = Stats.summarize [ 1.; 2.; 3. ] in
  let lo, hi = Stats.confidence_95 s in
  (* df = 2, t = 4.303, stderr = 1/sqrt 3 *)
  Alcotest.(check (float 1e-3)) "lower" (2. -. (4.303 /. sqrt 3.)) lo;
  Alcotest.(check (float 1e-3)) "upper" (2. +. (4.303 /. sqrt 3.)) hi;
  let single = Stats.summarize [ 5. ] in
  Alcotest.(check (pair (float 0.) (float 0.))) "degenerate" (5., 5.)
    (Stats.confidence_95 single)

let test_cli_building_blocks_consistent () =
  (* protection level from the paper load equals the level from the
     fitted matrix (end-to-end Table 1 pipeline) *)
  let routes, fit = Fit.nsfnet_nominal () in
  let levels = Protection.levels routes fit.Fit.matrix ~h:11 in
  let g = Route_table.graph routes in
  List.iter
    (fun ((src, dst), (_, r11)) ->
      let id = (Graph.find_link_exn g ~src ~dst).Link.id in
      Alcotest.(check int)
        (Printf.sprintf "pipeline level %d->%d" src dst)
        r11 levels.(id))
    Nsfnet.table1_protection

let () =
  Alcotest.run "integration"
    [ ( "quadrangle",
        [ Alcotest.test_case "headline shapes" `Slow test_quadrangle_headline;
          Alcotest.test_case "guarantee across loads" `Slow
            test_quadrangle_guarantee_across_loads;
          Alcotest.test_case "low-load equivalence" `Slow
            test_controlled_behaves_like_uncontrolled_at_low_load;
          Alcotest.test_case "alternate usage shrinks" `Slow
            test_alternate_usage_shrinks_under_control ] );
      ( "nsfnet",
        [ Alcotest.test_case "headline shapes" `Slow test_nsfnet_headline;
          Alcotest.test_case "link failure ordering" `Slow
            test_nsfnet_link_failure_keeps_ordering;
          Alcotest.test_case "table-1 pipeline" `Quick
            test_cli_building_blocks_consistent ] );
      ( "calibration",
        [ Alcotest.test_case "single link = Erlang B" `Slow
            test_single_link_matches_erlang_b;
          Alcotest.test_case "confidence intervals" `Quick
            test_confidence_interval_basics ] ) ]
