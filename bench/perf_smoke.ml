(* CI perf smoke: a fig3-sized check that the hot path stays both
   correct and allocation-free.

   1. Runs the quick-config quadrangle sweep and asserts the frozen
      golden blocking means (the same table tier-1 pins in
      test_experiments.ml) still hold bit-identically.
   2. Measures the words [Trace.generate] allocates per call: none in
      the minor heap (a boxed draw would cost 2), and in the major heap
      its kept columns, the departure order, and the scratch of sizing
      once and sorting, against a ceiling about 10% above that.
   3. Replays three warm traces through the compiled controlled scheme
      twice each — plain, under a short failure script, and a two-class
      multi-rate trace — and measures minor-heap words allocated per
      call on the second run.  The steady-state budget is zero (admit +
      departure + blocked-primary probe); the ceiling below is generous
      so the job catches accidental re-boxing — a float crossing a
      function boundary costs >= 2 words/call — and never micro-noise.
      Each replay must also advance [Engine.calls_simulated] by its
      call count.
   4. Replays a warm nominal NSFNet trace the same way through the
      compiled custom-decide policies: Ott-Krishnan (unreduced and
      reduced), least-busy (free and protected) and length-aware,
      under the same ceiling; then through the observed controlled
      scheme (engine and scheme both observing) and the adaptive
      scheme (built fresh for each run), which allocate for their
      events and estimators, each under its own ceiling about 10%
      above what it allocates.
   5. Measures minor words per replayed call over two whole quick
      sweeps — the fig3 sweep of step 1 and a one-scale fig6 sweep with
      Ott-Krishnan — against ceilings about 10% above what they
      allocate, trace generation and set-up included.
   6. Measures the route table of a fixed 120-node mesh at H = 6: the
      words it keeps live, and the words its build allocates, per
      stored path, against ceilings about 10% and 6% above what the
      flat rows take.  A table of one record per path takes about
      three times as much live and six times as much allocated.
   7. Patches that table: removes and re-adds its busiest link, then
      its median link (by the ordered pairs with a stored path over
      it), and checks that each patch allocates at most 1.1 times the
      words of one build and that each round trip restores the table.
      A patch builds the changed graph's table and allocates 1.03
      builds' words; recomputing the affected pairs and splicing them
      into copies of their rows took 5 to 25.

   Exits nonzero on any failure, so CI blocks the regression. *)

open Arnet_experiments

let failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf_smoke: FAIL " ^ s);
      failed := true)
    fmt

let config = Config.quick

(* minor words per replayed call over a whole sweep: trace generation,
   set-up and every replay *)
let sweep_words name ~ceiling sweep =
  let calls = Arnet_sim.Engine.calls_simulated () in
  let before = Gc.minor_words () in
  let result = sweep () in
  let words = Gc.minor_words () -. before in
  let calls = Arnet_sim.Engine.calls_simulated () - calls in
  let per_call = words /. float_of_int calls in
  Printf.printf "perf_smoke: %s sweep %d calls, %.2f minor words/call\n" name
    calls per_call;
  if per_call > ceiling then
    fail "%s sweep allocates %.2f minor words/call (ceiling %.1f)" name
      per_call ceiling;
  result

(* about 10% above the measured 8.70 (fig6); fig3 measures 0.03, so
   its ceiling is a small absolute floor that one boxed float per call
   (2 words) would still break *)
let fig3_words_ceiling = 0.1
let fig6_words_ceiling = 9.6

let golden_check () =
  let points =
    sweep_words "quick fig3" ~ceiling:fig3_words_ceiling (fun () ->
        Quadrangle.run ~loads:[ 80.; 90.; 95. ] ~config ())
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
  if List.length points <> List.length expected then
    fail "expected %d sweep points, got %d" (List.length expected)
      (List.length points)
  else
    List.iter2
      (fun p (x, golden) ->
        if p.Sweep.x <> x then fail "sweep coordinate %g <> %g" p.Sweep.x x;
        if List.map fst golden <> List.map fst p.Sweep.schemes then
          fail "scheme order changed at %g E" x
        else
          List.iter2
            (fun (name, mean) (_, s) ->
              let got = s.Arnet_sim.Stats.mean in
              if Float.abs (got -. mean) > 1e-12 then
                fail "golden blocking for %s at %g E: expected %.17g got %.17g"
                  name x mean got)
            golden p.Sweep.schemes)
      points expected;
  if not !failed then print_endline "perf_smoke: goldens OK (9 frozen means)"

(* generous: steady state measures ~0.01 words/call; one re-boxed float
   in the per-call path costs >= 2 *)
let words_per_call_ceiling = 1.0

(* the generator draws unboxed straight into its columns: nothing per
   call in the minor heap, where one boxed draw would cost 2 words *)
let generate_words_ceiling = 2.0

(* the major heap holds the kept columns (7 words per call) and the
   order (1), the sized-once columns they are copied from (6), and the
   sort's bucket starts (1): about 10% above the measured 15.2 *)
let generate_major_words_ceiling = 16.7

(* replays [trace] twice, each time through a policy from [policy ()],
   and checks the second run's minor words per call, and that the replay
   odometer counted every call *)
let check_replay name ?script ?observer ?(ceiling = words_per_call_ceiling)
    ~graph ~policy trace =
  let calls = Arnet_sim.Trace.call_count trace in
  let run policy =
    ignore
      (Arnet_sim.Engine.run ~warmup:5. ?script ?observer ~graph ~policy trace
        : Arnet_sim.Stats.t)
  in
  (* first run warms the trace, the compiled plans and the queue *)
  run (policy ());
  let policy = policy () in
  let odometer = Arnet_sim.Engine.calls_simulated () in
  let before = Gc.minor_words () in
  run policy;
  let words = Gc.minor_words () -. before in
  let counted = Arnet_sim.Engine.calls_simulated () - odometer in
  let per_call = words /. float_of_int calls in
  Printf.printf
    "perf_smoke: %s replay %d calls, %.0f minor words, %.4f words/call\n"
    name calls words per_call;
  if per_call > ceiling then
    fail "%s hot path allocates %.4f minor words/call (ceiling %.1f)" name
      per_call ceiling;
  if counted <> calls then
    fail "%s replay advanced calls_simulated by %d, not %d" name counted calls

let allocation_check () =
  let g = Arnet_topology.Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Arnet_paths.Route_table.build g in
  let matrix = Arnet_traffic.Matrix.uniform ~nodes:4 ~demand:90. in
  let rng () =
    Arnet_sim.Rng.substream (Arnet_sim.Rng.create ~seed:42) "trace"
  in
  let generate () =
    Arnet_sim.Trace.generate ~rng:(rng ()) ~duration:50. matrix
  in
  ignore (generate () : Arnet_sim.Trace.t);
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).major_words in
  let trace = generate () in
  let major1 = (Gc.quick_stat ()).major_words and minor1 = Gc.minor_words () in
  let calls = float_of_int (Arnet_sim.Trace.call_count trace) in
  let gen_words = (minor1 -. minor0) /. calls in
  let gen_major = (major1 -. major0) /. calls in
  Printf.printf
    "perf_smoke: Trace.generate %.2f minor, %.2f major words/call\n"
    gen_words gen_major;
  if gen_words > generate_words_ceiling then
    fail "Trace.generate allocates %.2f minor words/call (ceiling %.1f)"
      gen_words generate_words_ceiling;
  if gen_major > generate_major_words_ceiling then
    fail "Trace.generate allocates %.2f major words/call (ceiling %.1f)"
      gen_major generate_major_words_ceiling;
  let policy =
    let p = Arnet_core.Scheme.controlled_auto ~matrix routes in
    fun () -> p
  in
  check_replay "controlled" ~graph:g ~policy trace;
  (* a short failure script: two links cut and repaired mid-run *)
  let module S = Arnet_sim.Script in
  let script =
    S.of_events
      [ { S.time = 12.; link = 0; action = S.Fail };
        { S.time = 20.; link = 5; action = S.Fail };
        { S.time = 25.; link = 0; action = S.Repair };
        { S.time = 33.; link = 5; action = S.Repair } ]
  in
  check_replay "scripted controlled" ~script ~graph:g ~policy trace;
  (* two classes, narrowband and 6-unit wideband, at 1/12 the rate *)
  let two_class =
    Arnet_sim.Trace.generate_classes ~rng:(rng ()) ~duration:50.
      ~bandwidths:[| 1; 6 |] ~mean_holdings:[| 1.; 1. |]
      [| Arnet_traffic.Matrix.uniform ~nodes:4 ~demand:65.;
         Arnet_traffic.Matrix.uniform ~nodes:4 ~demand:(65. /. 12.) |]
  in
  check_replay "two-class controlled" ~graph:g ~policy two_class

(* the observed scheme allocates its events, and the adaptive one its
   estimator feed: about 10% above the 68.4 and 5.52 words per call they
   allocate *)
let observed_words_ceiling = 75.0
let adaptive_words_ceiling = 6.1

let custom_decide_check () =
  let routes, matrix = Internet.nominal () in
  let graph = Arnet_paths.Route_table.graph routes in
  let trace =
    Arnet_sim.Trace.generate
      ~rng:(Arnet_sim.Rng.substream (Arnet_sim.Rng.create ~seed:42) "trace")
      ~duration:30. matrix
  in
  let reserves =
    Arnet_core.Protection.levels routes matrix
      ~h:(Arnet_paths.Route_table.h routes)
  in
  let module S = Arnet_core.Scheme in
  List.iter
    (fun (name, policy) ->
      check_replay name ~graph ~policy:(fun () -> policy) trace)
    [ ("nsfnet ott-krishnan", S.ott_krishnan ~matrix routes);
      ( "nsfnet ott-krishnan-reduced",
        S.ott_krishnan ~reduced_load:true ~matrix routes );
      ("nsfnet least-busy-free", S.least_busy routes);
      ("nsfnet least-busy-protected", S.least_busy ~reserves routes);
      ( "nsfnet controlled-length-aware",
        S.controlled_length_aware ~matrix routes ) ];
  let observer (_ : Arnet_obs.Event.t) = () in
  let observed = S.controlled_auto ~observer ~matrix routes in
  check_replay "nsfnet observed controlled" ~observer
    ~ceiling:observed_words_ceiling ~graph
    ~policy:(fun () -> observed)
    trace;
  check_replay "nsfnet controlled-adaptive" ~ceiling:adaptive_words_ceiling
    ~graph
    ~policy:(fun () -> S.controlled_adaptive routes)
    trace;
  ignore
    (sweep_words "quick fig6 (nominal, with Ott-Krishnan)"
       ~ceiling:fig6_words_ceiling (fun () ->
         Internet.run ~h:11 ~scales:[ 1.0 ] ~config ())
      : Sweep.point list)

(* live words and words allocated (minor plus major, less the promoted
   words both count) per stored path, about 10% and 6% above the 6.76
   and 7.05 that [Route_table.build ~h:6] of the 120-node mesh takes;
   its 115 404 paths as [Path.t] records took 21.7 and 45.2 *)
let table_live_ceiling = 7.4
let table_alloc_ceiling = 7.5

(* [f ()] and the words it allocates: minor plus major, less the
   promoted words both count.  The minor heap is emptied before the end
   reading, so the reading does not depend on how much of [f]'s
   allocation happens to still sit there; every caller starts from an
   empty minor heap too, after a full major GC *)
let allocating f =
  let minor0 = Gc.minor_words () and s0 = Gc.quick_stat () in
  let v = f () in
  Gc.minor ();
  let minor1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  ( v,
    minor1 -. minor0
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

let table_check () =
  let module RT = Arnet_paths.Route_table in
  let mesh = Arnet_ingest.Mesh.random_mesh ~seed:0 ~nodes:120 () in
  let g = mesh.Arnet_ingest.Topo.graph in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let routes, allocated = allocating (fun () -> RT.build ~h:6 g) in
  Gc.full_major ();
  let live = float_of_int ((Gc.stat ()).Gc.live_words - live0) in
  (* a routed pair stores its primary and its alternates *)
  let n = Arnet_topology.Graph.node_count g in
  let paths = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && RT.has_route routes ~src ~dst then
        paths := !paths + 1 + List.length (RT.alternates routes ~src ~dst)
    done
  done;
  let per x = x /. float_of_int !paths in
  Printf.printf
    "perf_smoke: 120-node H = 6 table %d paths, %.2f live, %.2f allocated \
     words/path\n"
    !paths (per live) (per allocated);
  if per live > table_live_ceiling then
    fail "route table keeps %.2f live words/path (ceiling %.1f)" (per live)
      table_live_ceiling;
  if per allocated > table_alloc_ceiling then
    fail "route table build allocates %.2f words/path (ceiling %.1f)"
      (per allocated) table_alloc_ceiling;
  (routes, allocated)

(* words a patch allocates, in builds of the table it patches *)
let patch_alloc_ceiling = 1.1

let patch_check (routes, build_words) =
  let module RT = Arnet_paths.Route_table in
  let module G = Arnet_topology.Graph in
  let g = RT.graph routes in
  let m = G.link_count g in
  let over = Link_pairs.count routes in
  let ids = Array.init m Fun.id in
  Array.stable_sort (fun a b -> compare over.(a) over.(b)) ids;
  (* each from a fresh major cycle, as the build was: the words read
     depend on the collector's state *)
  let measured f =
    Gc.full_major ();
    allocating f
  in
  List.iter
    (fun (what, k) ->
      let l = G.link g k in
      let src = l.Arnet_topology.Link.src and dst = l.Arnet_topology.Link.dst in
      let (removed, _), remove_words =
        measured (fun () -> RT.patch routes [ RT.Remove_link { src; dst } ])
      in
      let capacity = l.Arnet_topology.Link.capacity in
      let (restored, _), add_words =
        measured (fun () ->
            RT.patch removed [ RT.Add_link { src; dst; capacity } ])
      in
      if not (RT.equal restored routes) then
        fail "%s link %d: patch round trip lost routes" what k;
      List.iter
        (fun (verb, words) ->
          let builds = words /. build_words in
          Printf.printf
            "perf_smoke: %s link %d (%d pairs) %s allocates %.2f builds\n"
            what k over.(k) verb builds;
          if builds > patch_alloc_ceiling then
            fail "%s link %d: %s allocates %.2f builds' words (ceiling %.1f)"
              what k verb builds patch_alloc_ceiling)
        [ ("remove", remove_words); ("add", add_words) ])
    [ ("busiest", ids.(m - 1)); ("median", ids.(m / 2)) ]

let () =
  golden_check ();
  allocation_check ();
  custom_decide_check ();
  patch_check (table_check ());
  if !failed then exit 1;
  print_endline "perf_smoke: PASS"
