open Arnet_experiments

let tiny =
  (* even faster than Config.quick: enough to smoke the machinery *)
  { Config.seeds = [ 1; 2 ]; duration = 30.; warmup = 5. }

let feq_at tol = Alcotest.(check (float tol))

let test_config () =
  Alcotest.(check int) "paper seeds" 10 (List.length Config.paper.Config.seeds);
  Alcotest.(check int) "quick seeds" 3 (List.length Config.quick.Config.seeds);
  Alcotest.(check bool) "describe mentions seeds" true
    (String.length (Config.describe Config.paper) > 0);
  Unix.putenv "ARNET_QUICK" "1";
  Alcotest.(check int) "env quick" 3
    (List.length (Config.of_env ()).Config.seeds);
  Unix.putenv "ARNET_SEEDS" "5";
  Alcotest.(check int) "env seed override" 5
    (List.length (Config.of_env ()).Config.seeds);
  (* leave the environment as we found it for later tests *)
  Unix.putenv "ARNET_QUICK" "";
  Unix.putenv "ARNET_SEEDS" ""

let test_fig1 () =
  let r = Fig1.run () in
  feq_at 1e-9 "stationary sums to 1" 1.
    (Array.fold_left ( +. ) 0. r.Fig1.stationary);
  Alcotest.(check bool) "theorem holds on the figure's chain" true
    (r.Fig1.worst_extra_loss <= r.Fig1.theorem_bound +. 1e-9);
  Alcotest.(check int) "states" 11 (Array.length r.Fig1.stationary)

let test_fig2 () =
  let curves = Fig2.run () in
  Alcotest.(check (list int)) "three H curves" [ 2; 6; 120 ]
    (List.map fst curves);
  List.iter
    (fun (h, pts) ->
      Alcotest.(check int) (Printf.sprintf "H=%d: 100 points" h) 100
        (List.length pts);
      (* r grows with load *)
      let first = snd (List.hd pts) and last = snd (List.nth pts 99) in
      Alcotest.(check bool) "r grows with load" true (last >= first))
    curves;
  (* r grows with H at fixed load *)
  let r_at h load = List.assoc load (List.assoc h curves) in
  Alcotest.(check bool) "r grows with H" true
    (r_at 2 80. <= r_at 6 80. && r_at 6 80. <= r_at 120 80.)

let test_table1_quality () =
  let rows = Internet.table1 () in
  Alcotest.(check int) "30 rows" 30 (List.length rows);
  let exact11 =
    List.length
      (List.filter (fun r -> r.Internet.our_r11 = r.Internet.paper_r11) rows)
  in
  let close6 =
    List.length
      (List.filter
         (fun r -> abs (r.Internet.our_r6 - r.Internet.paper_r6) <= 2)
         rows)
  in
  Alcotest.(check int) "H=11 exact on all rows" 30 exact11;
  Alcotest.(check int) "H=6 within 2 on all rows" 30 close6;
  List.iter
    (fun r ->
      Alcotest.(check bool) "fitted load matches paper" true
        (Float.abs (r.Internet.fitted_load -. r.Internet.paper_load) < 0.5))
    rows

let test_quadrangle_sweep () =
  let points = Quadrangle.run ~loads:[ 70.; 95. ] ~config:tiny () in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check int) "three schemes" 3 (List.length p.Sweep.schemes);
      Alcotest.(check bool) "bound sane" true (p.Sweep.bound >= 0.);
      List.iter
        (fun (_, s) ->
          Alcotest.(check bool) "blocking in [0,1]" true
            (s.Arnet_sim.Stats.mean >= 0. && s.Arnet_sim.Stats.mean <= 1.))
        p.Sweep.schemes)
    points;
  (* scheme_mean works and unknown scheme raises *)
  let p = List.hd points in
  ignore (Sweep.scheme_mean p "controlled");
  Alcotest.check_raises "unknown scheme" Not_found (fun () ->
      ignore (Sweep.scheme_mean p "nonesuch"))

let test_quadrangle_golden () =
  (* Frozen ARNET_QUICK-config blocking means for the fig3/fig4 sweep
     (fig4 is the same data on log axes).  These pin the whole
     simulator stack — RNG, trace generation, engine, schemes,
     protection levels: a refactor that silently changes any of them
     fails tier-1 here instead of drifting EXPERIMENTS.md. *)
  let points =
    Quadrangle.run ~loads:[ 80.; 90.; 95. ] ~config:Config.quick ()
  in
  let expected =
    [ ( 80.,
        [ ("single-path", 0.0035970687657719772);
          ("uncontrolled", 6.1275743528842823e-05);
          ("controlled", 0.00018421195274935021) ] );
      ( 90.,
        [ ("single-path", 0.027233159266010543);
          ("uncontrolled", 0.077561753680641332);
          ("controlled", 0.022825224504288543) ] );
      ( 95.,
        [ ("single-path", 0.049777383949227538);
          ("uncontrolled", 0.15722272030961867);
          ("controlled", 0.048939295052836028) ] ) ]
  in
  List.iter2
    (fun p (x, golden) ->
      feq_at 1e-15 "sweep coordinate" x p.Sweep.x;
      Alcotest.(check (list string))
        (Printf.sprintf "scheme order at %g E" x)
        (List.map fst golden)
        (List.map fst p.Sweep.schemes);
      List.iter2
        (fun (name, mean) (_, s) ->
          feq_at 1e-12
            (Printf.sprintf "golden blocking for %s at %g E" name x)
            mean s.Arnet_sim.Stats.mean)
        golden p.Sweep.schemes)
    points expected

let test_internet_sweep_smoke () =
  let points =
    Internet.run ~scales:[ 1.0 ] ~with_ott_krishnan:false ~config:tiny ()
  in
  match points with
  | [ p ] ->
    Alcotest.(check int) "three schemes" 3 (List.length p.Sweep.schemes);
    Alcotest.(check bool) "nominal bound near 10%" true
      (p.Sweep.bound > 0.05 && p.Sweep.bound < 0.15)
  | _ -> Alcotest.fail "one point expected"

let test_internet_failures_smoke () =
  let points =
    Internet.run
      ~failed_links:[ (2, 3); (3, 2) ]
      ~scales:[ 1.0 ] ~config:tiny ()
  in
  match points with
  | [ p ] ->
    (* with less capacity the bound cannot drop *)
    let intact =
      List.hd
        (Internet.run ~scales:[ 1.0 ] ~with_ott_krishnan:false ~config:tiny ())
    in
    Alcotest.(check bool) "failure does not lower the bound" true
      (p.Sweep.bound >= intact.Sweep.bound -. 1e-9)
  | _ -> Alcotest.fail "one point expected"

let test_fairness_smoke () =
  let rows = Internet.fairness ~config:tiny () in
  Alcotest.(check int) "three schemes" 3 (List.length rows);
  let cv name =
    (List.find (fun r -> r.Internet.scheme = name) rows).Internet.skew
      .Arnet_sim.Stats.coefficient_of_variation
  in
  (* the paper's fairness ordering: single-path most skewed *)
  Alcotest.(check bool) "single-path more skewed than uncontrolled" true
    (cv "single-path" > cv "uncontrolled")

let test_cellular_smoke () =
  let points = Cellular_exp.run ~offered:[ 40. ] ~config:tiny () in
  match points with
  | [ p ] ->
    Alcotest.(check bool) "controlled <= no borrowing (within noise)" true
      (p.Cellular_exp.controlled.Arnet_sim.Stats.mean
      <= p.Cellular_exp.no_borrowing.Arnet_sim.Stats.mean +. 0.02)
  | _ -> Alcotest.fail "one point expected"

let test_robustness_smoke () =
  let points, single = Robustness.misestimation ~factors:[ 0.7; 1.3 ] ~config:tiny () in
  Alcotest.(check int) "two factors" 2 (List.length points);
  List.iter
    (fun p ->
      (* misestimated protection must stay in the single-path guarantee *)
      Alcotest.(check bool) "still never much worse than single-path" true
        (p.Robustness.blocking.Arnet_sim.Stats.mean
        <= single.Arnet_sim.Stats.mean +. 0.02))
    points

let test_ablation_h_sweep_smoke () =
  let rows = Ablation.h_sweep ~scales:[ 1.0 ] ~hs:[ 2; 11 ] ~config:tiny () in
  Alcotest.(check (list int)) "rows per H" [ 2; 11 ] (List.map fst rows);
  List.iter
    (fun (_, pts) ->
      List.iter
        (fun (_, s) ->
          Alcotest.(check bool) "blocking sane" true
            (s.Arnet_sim.Stats.mean >= 0. && s.Arnet_sim.Stats.mean <= 1.))
        pts)
    rows

let test_overload_smoke () =
  (* one seed at full duration so the 10-unit windows nest cleanly
     inside the surge interval *)
  let config = { Config.seeds = [ 1 ]; duration = 110.; warmup = 10. } in
  let r = Overload_exp.run ~window:10. ~config () in
  Alcotest.(check int) "three schemes" 3 (List.length r.Overload_exp.series);
  Alcotest.(check bool) "surge inside the run" true
    (r.Overload_exp.surge_start > 0.
    && r.Overload_exp.surge_stop > r.Overload_exp.surge_start);
  (* blocking during the surge must exceed the pre-surge level *)
  List.iter
    (fun s ->
      let before =
        List.filter
          (fun (t, _) -> t >= 10. && t < r.Overload_exp.surge_start)
          s.Overload_exp.points
      in
      let during =
        List.filter
          (fun (t, _) ->
            t >= r.Overload_exp.surge_start && t < r.Overload_exp.surge_stop)
          s.Overload_exp.points
      in
      let avg l =
        match l with
        | [] -> 0.
        | _ ->
          List.fold_left (fun a (_, b) -> a +. b) 0. l
          /. float_of_int (List.length l)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: surge raises blocking" s.Overload_exp.scheme)
        true
        (avg during > avg before))
    r.Overload_exp.series

let test_multirate_smoke () =
  let points = Multirate_exp.run ~loads:[ 80. ] ~config:tiny () in
  match points with
  | [ p ] ->
    let bw name = List.assoc name p.Multirate_exp.schemes in
    Alcotest.(check bool) "controlled <= single-path" true
      (bw "mr-controlled" <= bw "mr-single-path" +. 0.02);
    Alcotest.(check bool) "wideband suffers more than narrowband" true
      (p.Multirate_exp.wideband_controlled
      >= p.Multirate_exp.narrowband_controlled)
  | _ -> Alcotest.fail "one point expected"

let test_random_mesh_smoke () =
  let rows =
    Random_mesh.run ~topology_seeds:[ 7; 8 ] ~nodes:8 ~config:tiny ()
  in
  Alcotest.(check int) "two topologies" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "guarantee holds" true r.Random_mesh.guarantee_ok;
      Alcotest.(check bool) "diameter sane" true
        (r.Random_mesh.diameter >= 1 && r.Random_mesh.diameter < 8))
    rows

let test_signalling_smoke () =
  let points =
    Signalling_exp.run ~latencies:[ 0.; 0.02 ] ~config:tiny ()
  in
  Alcotest.(check int) "2 latencies x 2 schemes" 4 (List.length points);
  let find lat scheme =
    List.find
      (fun p ->
        p.Signalling_exp.hop_latency = lat && p.Signalling_exp.scheme = scheme)
      points
  in
  Alcotest.(check (float 1e-12)) "no glare at zero latency" 0.
    (find 0. "controlled").Signalling_exp.glare_per_carried;
  Alcotest.(check bool) "glare appears with latency" true
    ((find 0.02 "uncontrolled").Signalling_exp.glare_per_carried > 0.)

let test_bistability_smoke () =
  let r =
    Bistability_exp.run ~loads:[ 75.; 95. ] ~sim_load:85.
      ~config:
        { Config.seeds = [ 1 ]; duration = 60.; warmup = 10. }
      ()
  in
  Alcotest.(check int) "two analytic rows" 2 (List.length r.Bistability_exp.rows);
  let row75 = List.hd r.Bistability_exp.rows in
  Alcotest.(check bool) "band is visible at 75" true
    (row75.Bistability_exp.hot_free
    -. row75.Bistability_exp.cold_free
    > 0.05);
  Alcotest.(check bool) "protected band closed" true
    (Float.abs
       (row75.Bistability_exp.hot_protected
       -. row75.Bistability_exp.cold_protected)
    < 1e-6);
  Alcotest.(check int) "three sim series" 3
    (List.length r.Bistability_exp.sim_series)

let test_dimension_primitive () =
  (* inverse Erlang: minimal capacity meeting the target *)
  let c = Arnet_erlang.Erlang_b.dimension ~offered:80. ~target_blocking:0.01 in
  Alcotest.(check bool) "meets the target" true
    (Arnet_erlang.Erlang_b.blocking ~offered:80. ~capacity:c <= 0.01);
  Alcotest.(check bool) "minimal" true
    (Arnet_erlang.Erlang_b.blocking ~offered:80. ~capacity:(c - 1) > 0.01);
  Alcotest.(check bool) "sane headroom" true (c > 80 && c < 120);
  Alcotest.check_raises "bad target" (Invalid_argument "x") (fun () ->
      try
        ignore (Arnet_erlang.Erlang_b.dimension ~offered:1. ~target_blocking:0.)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_dimensioning_smoke () =
  let r = Dimensioning.run ~config:tiny () in
  Alcotest.(check bool) "controlled needs less capacity" true
    (r.Dimensioning.controlled_capacity < r.Dimensioning.single_path_capacity);
  Alcotest.(check bool) "positive savings" true
    (r.Dimensioning.savings > 0. && r.Dimensioning.savings < 1.);
  Alcotest.(check bool) "single-path endpoint validated" true
    (r.Dimensioning.single_path_simulated <= r.Dimensioning.target *. 1.5);
  Alcotest.(check bool) "controlled endpoint validated" true
    (r.Dimensioning.controlled_simulated <= r.Dimensioning.target *. 1.5)

let test_report_format () =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Report.section ppf ~id:"x" ~title:"y";
  Report.series_header ppf ~columns:[ "a"; "b" ];
  Report.series_row ppf ~x:1.5 [ 0.25 ];
  Report.paper_vs_measured ppf ~what:"w" ~paper:"p" ~measured:"m";
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "section banner present" true (contains "=== x: y ===");
  Alcotest.(check string) "pct formatting" "12.5%" (Report.pct 0.125);
  Alcotest.(check string) "pct small" "0.50%" (Report.pct 0.005)

(* a mistyped experiment name is a usage error (cmdliner's 124), so a
   script that asks for it fails *)
let test_unknown_experiment () =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let status name =
    let argv = [| "../bin/arn.exe"; "experiment"; name |] in
    let pid = Unix.create_process argv.(0) argv Unix.stdin null null in
    snd (Unix.waitpid [] pid)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      Alcotest.(check bool) "fig33 is refused" true
        (status "fig33" = Unix.WEXITED 124);
      Alcotest.(check bool) "fig1 runs" true (status "fig1" = Unix.WEXITED 0))

let () =
  Alcotest.run "experiments"
    [ ( "config",
        [ Alcotest.test_case "defaults and env" `Quick test_config ] );
      ( "figures",
        [ Alcotest.test_case "unknown name through arn" `Quick
            test_unknown_experiment;
          Alcotest.test_case "fig1" `Quick test_fig1;
          Alcotest.test_case "fig2" `Quick test_fig2;
          Alcotest.test_case "table1 quality" `Quick test_table1_quality ] );
      ( "golden",
        [ Alcotest.test_case "quadrangle fig3/fig4 numbers" `Slow
            test_quadrangle_golden ] );
      ( "sweeps",
        [ Alcotest.test_case "quadrangle" `Slow test_quadrangle_sweep;
          Alcotest.test_case "internet" `Slow test_internet_sweep_smoke;
          Alcotest.test_case "failures" `Slow test_internet_failures_smoke;
          Alcotest.test_case "fairness" `Slow test_fairness_smoke;
          Alcotest.test_case "cellular" `Slow test_cellular_smoke;
          Alcotest.test_case "robustness" `Slow test_robustness_smoke;
          Alcotest.test_case "ablation h sweep" `Slow
            test_ablation_h_sweep_smoke;
          Alcotest.test_case "overload" `Slow test_overload_smoke;
          Alcotest.test_case "multirate" `Slow test_multirate_smoke;
          Alcotest.test_case "random mesh" `Slow test_random_mesh_smoke;
          Alcotest.test_case "signalling" `Slow test_signalling_smoke;
          Alcotest.test_case "bistability" `Slow test_bistability_smoke;
          Alcotest.test_case "dimension primitive" `Quick
            test_dimension_primitive;
          Alcotest.test_case "dimensioning" `Slow test_dimensioning_smoke ] );
      ("report", [ Alcotest.test_case "format" `Quick test_report_format ]) ]
