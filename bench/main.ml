(* Reproduction harness: one section per table/figure of the paper,
   plus the extensions, the daemon and the route compiler.  It prints
   the tables that EXPERIMENTS.md records; speed is measured by the
   repository benchmark in perfbench/, not here.

   Usage: main.exe [section ...]
     sections: fig1 fig2 fig3 fig4 fig5 table1 fig6 fig7
               exp_h6 exp_failures exp_fairness exp_minloss exp_robustness
               exp_ablation exp_overload ext_cellular ext_multirate
               ext_bistability ext_signalling ext_random_mesh ext_analytic
               ext_optimality ext_dimensioning ext_failure serve storm
               compile
     default: all of them.
   Environment: ARNET_QUICK=1 for a fast pass (3 seeds, short window),
   ARNET_SEEDS=n to override the seed count. *)

open Arnet_experiments

let ppf = Format.std_formatter

let config = lazy (Config.of_env ())

let log10_or_floor b = if b <= 0. then -6. else Stdlib.max (-6.) (log10 b)

(* Figures 3/4 and 6/7 are the same data on linear and log axes; compute
   each sweep once. *)
let quadrangle_points = lazy (Quadrangle.run ~config:(Lazy.force config) ())

let internet_points =
  lazy (Internet.run ~h:11 ~config:(Lazy.force config) ())

let print_log_view points =
  Report.note ppf "log10 of blocking (emphasizing low-load behaviour):";
  let columns =
    match points with
    | [] -> []
    | p :: _ -> List.map fst p.Sweep.schemes
  in
  Report.series_header ppf ~columns:("load" :: "erlang-bound" :: columns);
  List.iter
    (fun p ->
      Report.series_row ppf ~x:p.Sweep.x
        (log10_or_floor p.Sweep.bound
        :: List.map
             (fun (_, s) -> log10_or_floor s.Arnet_sim.Stats.mean)
             p.Sweep.schemes))
    points

let fig1 () =
  Report.section ppf ~id:"fig1"
    ~title:"Markov chain of a link under state protection";
  Fig1.print ppf (Fig1.run ());
  Report.paper_vs_measured ppf ~what:"Theorem 1 on the depicted chain"
    ~paper:"L bounded for any overflow" ~measured:"bound holds (see above)"

let fig2 () =
  Report.section ppf ~id:"fig2"
    ~title:"Protection level r vs primary load (C=100, H=2/6/120)";
  let curves = Fig2.run () in
  Fig2.print ppf curves;
  let r_at h load =
    List.assoc load (List.assoc h curves)
  in
  Report.paper_vs_measured ppf ~what:"r at 50 Erlangs, H in [1000,2000]"
    ~paper:"r in [10,20]"
    ~measured:
      (Printf.sprintf "r(H=1000)=%d r(H=2000)=%d"
         (Arnet_core.Protection.level ~offered:50. ~capacity:100 ~h:1000)
         (Arnet_core.Protection.level ~offered:50. ~capacity:100 ~h:2000));
  Report.paper_vs_measured ppf ~what:"containment of r as H grows (load 80)"
    ~paper:"increase is contained"
    ~measured:
      (Printf.sprintf "r: H=2 -> %d, H=6 -> %d, H=120 -> %d" (r_at 2 80.)
         (r_at 6 80.) (r_at 120 80.))

let fig3 () =
  Report.section ppf ~id:"fig3"
    ~title:"Blocking for a fully-connected quadrangle (linear axes)";
  Report.note ppf (Config.describe (Lazy.force config));
  let points = Lazy.force quadrangle_points in
  Quadrangle.print ppf points;
  let at x name =
    Sweep.scheme_mean
      (List.find (fun p -> p.Sweep.x = x) points)
      name
  in
  Report.paper_vs_measured ppf ~what:"uncontrolled below 85 E"
    ~paper:"performs well"
    ~measured:(Printf.sprintf "blocking %s at 80 E" (Report.pct (at 80. "uncontrolled")));
  Report.paper_vs_measured ppf ~what:"uncontrolled beyond 85-90 E"
    ~paper:"degrades badly"
    ~measured:
      (Printf.sprintf "%s at 95 E vs single-path %s"
         (Report.pct (at 95. "uncontrolled"))
         (Report.pct (at 95. "single-path")));
  Report.paper_vs_measured ppf ~what:"controlled in 85-95 E"
    ~paper:"better than either"
    ~measured:
      (Printf.sprintf "at 90 E: ctl %s vs unc %s vs sp %s"
         (Report.pct (at 90. "controlled"))
         (Report.pct (at 90. "uncontrolled"))
         (Report.pct (at 90. "single-path")))

let fig4 () =
  Report.section ppf ~id:"fig4"
    ~title:"Blocking for a fully-connected quadrangle (log axes)";
  print_log_view (Lazy.force quadrangle_points)

let fig5 () =
  Report.section ppf ~id:"fig5" ~title:"The NSFNet T3 backbone model";
  let g = Arnet_topology.Nsfnet.graph () in
  Format.fprintf ppf "%a@." Arnet_topology.Graph.pp g;
  let routes = Arnet_paths.Route_table.build g in
  let mn = ref 0 and mx = ref 0 in
  let avg = Arnet_paths.Route_table.alternate_count_stats routes ~min:mn ~max:mx in
  Report.paper_vs_measured ppf ~what:"alternate paths per pair (H=11)"
    ~paper:"avg ~9, min 5, max 15"
    ~measured:(Printf.sprintf "avg %.1f, min %d, max %d" avg !mn !mx)

let table1 () =
  Report.section ppf ~id:"table1"
    ~title:"NSFNet capacities, primary loads, protection levels (H=6, H=11)";
  Internet.print_table1 ppf (Internet.table1 ())

let fig6 () =
  Report.section ppf ~id:"fig6"
    ~title:"Internet model, unlimited alternate path lengths (linear axes)";
  Report.note ppf (Config.describe (Lazy.force config));
  Report.note ppf "load-scale 1.0 is the paper's nominal Load=10";
  let points = Lazy.force internet_points in
  Internet.print ppf points;
  let at x name =
    Sweep.scheme_mean (List.find (fun p -> p.Sweep.x = x) points) name
  in
  Report.paper_vs_measured ppf ~what:"single-path at moderate load"
    ~paper:"poor vs alternate routing"
    ~measured:
      (Printf.sprintf "at 0.7x: sp %s vs unc %s"
         (Report.pct (at 0.7 "single-path"))
         (Report.pct (at 0.7 "uncontrolled")));
  Report.paper_vs_measured ppf ~what:"uncontrolled above nominal"
    ~paper:"worse than single-path"
    ~measured:
      (Printf.sprintf "at 1.4x: unc %s vs sp %s"
         (Report.pct (at 1.4 "uncontrolled"))
         (Report.pct (at 1.4 "single-path")));
  Report.paper_vs_measured ppf ~what:"controlled vs single-path (guarantee)"
    ~paper:"never worse"
    ~measured:
      (Printf.sprintf "at 1.4x: ctl %s vs sp %s"
         (Report.pct (at 1.4 "controlled"))
         (Report.pct (at 1.4 "single-path")));
  Report.paper_vs_measured ppf ~what:"Ott-Krishnan on the sparse mesh"
    ~paper:"performance is poor"
    ~measured:
      (Printf.sprintf "at 1.2x: ok %s vs ctl %s"
         (Report.pct (at 1.2 "ott-krishnan"))
         (Report.pct (at 1.2 "controlled")))

let fig7 () =
  Report.section ppf ~id:"fig7"
    ~title:"Internet model, unlimited alternate path lengths (log axes)";
  print_log_view (Lazy.force internet_points)

let exp_h6 () =
  Report.section ppf ~id:"exp_h6"
    ~title:"Internet model with alternate paths limited to H=6";
  let points = Internet.run ~h:6 ~with_ott_krishnan:false ~config:(Lazy.force config) () in
  Internet.print ppf points;
  let g = Arnet_topology.Nsfnet.graph () in
  let rt6 = Arnet_paths.Route_table.build ~h:6 g in
  let mn = ref 0 and mx = ref 0 in
  let avg = Arnet_paths.Route_table.alternate_count_stats rt6 ~min:mn ~max:mx in
  Report.paper_vs_measured ppf ~what:"alternate paths per pair (H=6)"
    ~paper:"avg ~7, min 5, max 13 (convention differs; see EXPERIMENTS.md)"
    ~measured:(Printf.sprintf "avg %.1f, min %d, max %d" avg !mn !mx);
  Report.paper_vs_measured ppf ~what:"controlled at H=6 vs H=11"
    ~paper:"small improvement from smaller r"
    ~measured:"compare the controlled column with fig6"

let exp_failures () =
  Report.section ppf ~id:"exp_failures"
    ~title:"Link failures (Section 4.2.2)";
  let scales = [ 0.8; 1.0; 1.2 ] in
  let run_with links label =
    Report.note ppf label;
    let points =
      Internet.run ~failed_links:links ~scales ~config:(Lazy.force config) ()
    in
    Internet.print ppf points
  in
  run_with [ (2, 3); (3, 2) ] "links 2<->3 disabled:";
  run_with [ (7, 9); (9, 7) ] "links 7<->9 disabled:";
  Report.paper_vs_measured ppf ~what:"relative position of the curves"
    ~paper:"maintained under failures"
    ~measured:"see both sweeps above (blocking higher, ordering kept)"

let exp_fairness () =
  Report.section ppf ~id:"exp_fairness"
    ~title:"Blocking skew across O-D pairs (H=6, nominal load)";
  let rows = Internet.fairness ~config:(Lazy.force config) () in
  Internet.print_fairness ppf rows;
  Report.paper_vs_measured ppf ~what:"skewness ordering"
    ~paper:"single-path most skewed, uncontrolled least"
    ~measured:"see cv column above"

let exp_minloss () =
  Report.section ppf ~id:"exp_minloss"
    ~title:"Primary paths chosen to minimize link loss (Section 4.2.2)";
  Minloss.print ppf (Minloss.run ~config:(Lazy.force config) ())

let exp_robustness () =
  Report.section ppf ~id:"exp_robustness"
    ~title:"Robustness to load misestimation + the adaptive variant";
  let mis = Robustness.misestimation ~config:(Lazy.force config) () in
  Report.note ppf
    "controlled scheme at 1.2x nominal, protection levels computed from \
     Lambda scaled by the factor:";
  Robustness.print_misestimation ppf mis;
  Report.paper_vs_measured ppf ~what:"sensitivity to estimation error"
    ~paper:"state protection is robust (Key [21])"
    ~measured:"blocking nearly flat across 0.5x-2.0x estimates";
  Report.note ppf "distributed estimation (no a-priori matrix), nominal load:";
  Robustness.print_adaptive ppf
    (Robustness.adaptive ~config:(Lazy.force config) ())

let exp_ablation () =
  Report.section ppf ~id:"exp_ablation"
    ~title:"Ablations: H, per-link H^k, global-state routing, O-K variants";
  Report.note ppf "controlled blocking vs the design parameter H:";
  Ablation.print_h_sweep ppf (Ablation.h_sweep ~config:(Lazy.force config) ());
  Report.note ppf "scheme variants on one sweep:";
  Ablation.print_variants ppf
    (Ablation.variants ~config:(Lazy.force config) ())

let ext_cellular () =
  Report.section ppf ~id:"ext_cellular"
    ~title:"Channel borrowing in cellular telephony (Section 3.2, H=3)";
  let points = Cellular_exp.run ~config:(Lazy.force config) () in
  Cellular_exp.print ppf points;
  Report.paper_vs_measured ppf
    ~what:"controlled borrowing vs no borrowing"
    ~paper:"guaranteed improvement, near optimal for C~50"
    ~measured:"controlled column <= no-borrowing column at every load"

let exp_overload () =
  Report.section ppf ~id:"exp_overload"
    ~title:"Focused overload (Section 1's motivating scenario)";
  let r = Overload_exp.run ~config:(Lazy.force config) () in
  Overload_exp.print ppf r;
  let during name = List.assoc name r.Overload_exp.during_surge in
  Report.paper_vs_measured ppf ~what:"behaviour under extraordinary load"
    ~paper:"uncontrolled alternate routing avalanches; control contains it"
    ~measured:
      (Printf.sprintf "surge blocking: unc %s, ctl %s, sp %s"
         (Report.pct (during "uncontrolled"))
         (Report.pct (during "controlled"))
         (Report.pct (during "single-path")))

let ext_multirate () =
  Report.section ppf ~id:"ext_multirate"
    ~title:"Multi-rate calls (Section 1's future work, bandwidth-unit \
            protection)";
  let kr = Multirate_exp.kaufman_roberts_check () in
  let points = Multirate_exp.run ~config:(Lazy.force config) () in
  Multirate_exp.print ppf (kr, points);
  Report.paper_vs_measured ppf
    ~what:"controlled vs single-path, bandwidth blocking"
    ~paper:"(extension) guarantee expected to carry over"
    ~measured:"mr-controlled column <= mr-single-path at every load"

let ext_dimensioning () =
  Report.section ppf ~id:"ext_dimensioning"
    ~title:"Capacity dimensioning: transmission saved by the scheme";
  let r = Dimensioning.run ~config:(Lazy.force config) () in
  Dimensioning.print ppf r;
  Report.paper_vs_measured ppf ~what:"network engineering benefit"
    ~paper:"'less sensitivity ... to network engineering' (Sec. 5)"
    ~measured:
      (Printf.sprintf "%.0f%% less capacity for the same 1%% grade of service"
         (100. *. r.Dimensioning.savings))

let ext_optimality () =
  Report.section ppf ~id:"ext_optimality"
    ~title:"Exact MDP analysis: distance to the optimal policy (triangle)";
  let rows = Optimality_exp.run ~config:(Lazy.force config) () in
  Optimality_exp.print ppf rows;
  Report.paper_vs_measured ppf ~what:"single-path near-optimal at high load"
    ~paper:"'in most typical cases, single-path routing is near-optimal \
            under suitably high loads'"
    ~measured:"single-path column converges to the optimal column";
  Report.paper_vs_measured ppf ~what:"simulator calibration"
    ~paper:"(internal check)"
    ~measured:"ctl-simulated tracks the exact controlled column"

let ext_analytic () =
  Report.section ppf ~id:"ext_analytic"
    ~title:"Fixed-point approximation of the controlled scheme vs simulation";
  let routes, nominal = Internet.nominal () in
  let points = Lazy.force internet_points in
  Report.series_header ppf
    ~columns:
      [ "load-scale"; "sim-ctl"; "approx-ctl"; "sim-unc"; "approx-unc" ];
  List.iter
    (fun p ->
      let scale = p.Sweep.x in
      let matrix = Arnet_traffic.Matrix.scale nominal scale in
      let reserves =
        Arnet_core.Protection.levels routes matrix
          ~h:(Arnet_paths.Route_table.h routes)
      in
      let zero = Array.make (Array.length reserves) 0 in
      let ctl = Arnet_core.Approximation.solve ~routes ~reserves matrix in
      let unc = Arnet_core.Approximation.solve ~routes ~reserves:zero matrix in
      Report.series_row ppf ~x:scale
        [ Sweep.scheme_mean p "controlled";
          ctl.Arnet_core.Approximation.network_blocking;
          Sweep.scheme_mean p "uncontrolled";
          unc.Arnet_core.Approximation.network_blocking ])
    points;
  Report.paper_vs_measured ppf ~what:"controlled operating point"
    ~paper:"(extension) no analytic model given"
    ~measured:"fixed point tracks simulation within ~1pp near nominal"

let ext_random_mesh () =
  Report.section ppf ~id:"ext_random_mesh"
    ~title:"Generalization: the guarantee on random Waxman meshes";
  let rows = Random_mesh.run ~config:(Lazy.force config) () in
  Random_mesh.print ppf rows;
  let violations =
    List.length (List.filter (fun r -> not r.Random_mesh.guarantee_ok) rows)
  in
  Report.paper_vs_measured ppf
    ~what:"controlled <= single-path on general meshes"
    ~paper:"guaranteed under Poisson assumptions"
    ~measured:
      (Printf.sprintf "%d/%d sampled overloaded topologies satisfy it"
         (List.length rows - violations)
         (List.length rows))

let ext_signalling () =
  Report.section ppf ~id:"ext_signalling"
    ~title:"Packet-level call set-up: check forward, book backward";
  let points = Signalling_exp.run ~config:(Lazy.force config) () in
  Signalling_exp.print ppf points;
  Report.paper_vs_measured ppf ~what:"signalling assumed instantaneous"
    ~paper:"footnote 2: set-up bandwidth negligible"
    ~measured:
      "zero-latency rows match the atomic engine; blocking and glare \
       grow smoothly with per-hop delay"

let ext_bistability () =
  Report.section ppf ~id:"ext_bistability"
    ~title:"Bistability and the avalanche (the Section-1 phenomenon)";
  let r = Bistability_exp.run ~config:(Lazy.force config) () in
  Bistability_exp.print ppf r;
  Report.paper_vs_measured ppf ~what:"uncontrolled alternate routing"
    ~paper:"two operating regimes beyond a critical load [1, 10, 25]"
    ~measured:"free-cold vs free-hot columns split on the bistable band";
  Report.paper_vs_measured ppf ~what:"with state protection"
    ~paper:"high-blocking regime tamed"
    ~measured:"prot-cold = prot-hot everywhere; ignition run stays low"

let ext_failure () =
  Report.section ppf ~id:"ext_failure"
    ~title:
      "Failure-rate sweep: Theorem-1 reservation vs Suurballe protection \
       under link churn";
  let r = Failure_exp.run ~config:(Lazy.force config) () in
  Failure_exp.print ppf r;
  match List.rev r with
  | [] -> ()
  | worst :: _ ->
    let cell name =
      List.find (fun c -> c.Failure_exp.scheme = name) worst.Failure_exp.cells
    in
    Report.paper_vs_measured ppf ~what:"trunk reservation under churn"
      ~paper:"(extension) the Theorem-1 guarantee should survive failures"
      ~measured:
        (Printf.sprintf "at rate %g: ctl %s vs unc %s blocking"
           worst.Failure_exp.rate
           (Report.pct (cell "controlled").Failure_exp.blocking.Arnet_sim.Stats.mean)
           (Report.pct (cell "uncontrolled").Failure_exp.blocking.Arnet_sim.Stats.mean));
    Report.paper_vs_measured ppf ~what:"link-disjoint protection paths"
      ~paper:"(extension) disjoint alternates dodge the failed primary"
      ~measured:
        (Printf.sprintf
           "at rate %g: %.0f drops and %.0f failovers per run (protected) \
            vs %.0f and %.0f (controlled)"
           worst.Failure_exp.rate (cell "protected").Failure_exp.dropped
           (cell "protected").Failure_exp.failovers
           (cell "controlled").Failure_exp.dropped
           (cell "controlled").Failure_exp.failovers)

(* ------------------------------------------------------------------ *)
(* the admission-control daemon, measured over its own wire *)

(* calls each daemon section plays against the daemon *)
let daemon_calls = 20_000

(* the quadrangle both daemon sections serve, at 15 E per pair *)
let daemon_network () =
  let g = Arnet_topology.Builders.full_mesh ~nodes:4 ~capacity:20 in
  (g, Arnet_traffic.Matrix.uniform ~nodes:4 ~demand:15.)

(* serve [g] (under [failure_script], if any) on a fresh Unix socket,
   play the seeded load against it and drain; the result and the
   drained state, safe to read once the server thread is joined *)
let serve_and_load ~name ?failure_script g matrix =
  let module Service = Arnet_service in
  let addr =
    Service.Server.Unix_sock
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "arnet-%s-%d.sock" name (Unix.getpid ())))
  in
  let state = Service.State.create ~matrix ?failure_script g in
  let server = Thread.create (fun () -> Service.Server.serve ~state addr) () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (* drain whether or not the load ran: the daemon exits once
           every admitted call is gone, and loadgen tears its own down *)
        (try
           let ic, oc = Service.Server.connect ~retry_for:5. addr in
           ignore (Service.Server.request ic oc Service.Wire.Drain);
           close_out_noerr oc;
           ignore ic
         with _ -> ());
        Thread.join server)
      (fun () ->
        Service.Loadgen.run ~retry_for:5. ~seed:42 ~calls:daemon_calls ~matrix
          ~addr ())
  in
  Format.fprintf ppf "%a@." Service.Loadgen.print result;
  (result, state)

let serve () =
  Report.section ppf ~id:"serve"
    ~title:"arnet_service daemon: wire requests/sec over a Unix socket";
  let module Service = Arnet_service in
  let g, matrix = daemon_network () in
  let result, _ = serve_and_load ~name:"bench" g matrix in
  Report.paper_vs_measured ppf ~what:"daemon vs batch simulator decisions"
    ~paper:"(extension) same two-tier rule, call-by-call"
    ~measured:
      (Printf.sprintf "%d/%d blocked over the wire, %.0f req/s"
         result.Service.Loadgen.blocked result.Service.Loadgen.calls
         (Service.Loadgen.requests_per_second result))

(* the daemon again, now riding out a scripted failure storm while the
   same Poisson load plays against it *)
let storm () =
  Report.section ppf ~id:"storm"
    ~title:"arnet_service daemon availability under a scripted failure storm";
  let module Service = Arnet_service in
  let g, matrix = daemon_network () in
  (* the load spans about calls/total virtual time units; draw the storm
     over 80% of that so failures (and most repairs) land while SETUPs
     are still advancing the daemon's virtual clock *)
  let span = float_of_int daemon_calls /. Arnet_traffic.Matrix.total matrix in
  let script =
    Arnet_failure.Model.independent
      ~rng:(Arnet_sim.Rng.substream (Arnet_sim.Rng.create ~seed:42) "storm")
      ~duration:(0.8 *. span) ~mtbf:span ~mttr:(span /. 25.) g
  in
  Format.fprintf ppf "failure script: %d events over %.1f virtual tu@."
    (Arnet_sim.Script.length script) (0.8 *. span);
  let result, state =
    serve_and_load ~name:"storm" ~failure_script:script g matrix
  in
  let stats = Service.State.stats state in
  Format.fprintf ppf
    "storm      dropped %d in-flight, %d failovers, %d links still down@."
    stats.Service.Wire.dropped stats.Service.Wire.failovers
    (List.length stats.Service.Wire.failed);
  Report.paper_vs_measured ppf ~what:"daemon availability under the storm"
    ~paper:"(extension) alternates should carry calls around the cuts"
    ~measured:
      (Printf.sprintf "%.1f%% of %d calls accepted, %d rerouted past a cut"
         (100.
         *. float_of_int result.Service.Loadgen.accepted
         /. float_of_int result.Service.Loadgen.calls)
         result.Service.Loadgen.calls stats.Service.Wire.failovers)

(* ------------------------------------------------------------------ *)
(* route compilation at ISP scale: the build, and patches of one link *)

let compile () =
  Report.section ppf ~id:"compile"
    ~title:"Route compilation at ISP scale: builds and link patches";
  let module Ingest = Arnet_ingest in
  let module RT = Arnet_paths.Route_table in
  (* unbounded H enumerates exponentially many loop-free alternates on a
     sparse 1000-node mesh; a deployment at this scale caps the
     alternate hop length, so the sweep does too *)
  let h = 6 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  Format.fprintf ppf "  H = %d alternate hops, degree-4 gravity meshes@." h;
  Format.fprintf ppf
    "  each mesh removes and re-adds link 0 and its median-loaded link@.";
  Format.fprintf ppf "  %6s %6s %9s %6s %8s %9s %9s@." "nodes" "links" "build-s"
    "link" "pairs" "remove-s" "add-s";
  let row nodes =
    let t = Ingest.Mesh.random_mesh ~nodes () in
    let g = t.Ingest.Topo.graph in
    let m = Arnet_topology.Graph.link_count g in
    let memoized, memoized_s = time (fun () -> RT.build ~h g) in
    let over = Link_pairs.count memoized in
    let median =
      let ids = Array.init m Fun.id in
      Array.stable_sort (fun a b -> compare over.(a) over.(b)) ids;
      ids.(m / 2)
    in
    let patch_link k =
      (* asserted on every run: the removal counts exactly the pairs
         routed over the link, and adding it back restores the table *)
      let l = (Arnet_topology.Graph.links g).(k) in
      let src = l.Arnet_topology.Link.src
      and dst = l.Arnet_topology.Link.dst
      and capacity = l.Arnet_topology.Link.capacity in
      let (patched, recomputed), remove_s =
        time (fun () -> RT.patch memoized [ RT.Remove_link { src; dst } ])
      in
      if recomputed <> over.(k) then
        failwith "compile bench: removal counted other pairs";
      let (restored, _), add_s =
        time (fun () -> RT.patch patched [ RT.Add_link { src; dst; capacity } ])
      in
      if not (RT.equal restored memoized) then
        failwith "compile bench: patch round-trip lost routes";
      Format.fprintf ppf "  %6d %6d %9.2f %6d %8d %9.2f %9.2f@." nodes m
        memoized_s k recomputed remove_s add_s;
      (k, recomputed, remove_s, add_s)
    in
    let first = patch_link 0 in
    let typical = patch_link median in
    (nodes, memoized_s, first, typical)
  in
  match List.rev (List.map row [ 100; 500; 1000 ]) with
  | [] -> ()
  | (nodes, memoized_s, (_, p0, r0, a0), (k, pk, rk, ak)) :: _ ->
    Report.paper_vs_measured ppf
      ~what:"recompilation cost at the largest mesh"
      ~paper:"(Section 4.2.2) a failed link's routes are recomputed on the \
              reduced network"
      ~measured:
        (Printf.sprintf
           "%d nodes: build %.2fs; link 0 (%d pairs) removed %.2fs, added \
            back %.2fs; median link %d (%d pairs) %.2fs and %.2fs"
           nodes memoized_s p0 r0 a0 k pk rk ak)

let sections =
  [ ("fig1", fig1); ("fig2", fig2); ("fig3", fig3); ("fig4", fig4);
    ("fig5", fig5); ("table1", table1); ("fig6", fig6); ("fig7", fig7);
    ("exp_h6", exp_h6); ("exp_failures", exp_failures);
    ("exp_fairness", exp_fairness); ("exp_minloss", exp_minloss);
    ("exp_robustness", exp_robustness); ("exp_ablation", exp_ablation);
    ("exp_overload", exp_overload); ("ext_cellular", ext_cellular);
    ("ext_multirate", ext_multirate); ("ext_bistability", ext_bistability);
    ("ext_signalling", ext_signalling); ("ext_random_mesh", ext_random_mesh);
    ("ext_analytic", ext_analytic); ("ext_optimality", ext_optimality);
    ("ext_dimensioning", ext_dimensioning); ("ext_failure", ext_failure);
    ("serve", serve); ("storm", storm); ("compile", compile) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  Format.fprintf ppf
    "Controlling Alternate Routing in General-Mesh Packet Flow Networks — \
     reproduction harness@.";
  Format.fprintf ppf "configuration: %s@."
    (Config.describe (Lazy.force config));
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Format.fprintf ppf "unknown section %S (available: %s)@." name
          (String.concat " " (List.map fst sections)))
    requested
