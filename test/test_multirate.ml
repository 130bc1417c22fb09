open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_erlang
open Arnet_sim
open Arnet_core

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let feq_at tol = Alcotest.(check (float tol))

(* narrowband (class 0, 1 unit) and wideband (class 1, 6 units) calls,
   both of unit mean holding time *)
let two_class ~rng ~duration narrow wide =
  Trace.generate_classes ~rng ~duration ~bandwidths:[| 1; 6 |]
    ~mean_holdings:[| 1.; 1. |] [| narrow; wide |]

(* a hand-built trace of the same two classes *)
let two_class_calls matrix ~duration calls =
  Trace.of_class_calls ~matrix ~duration ~bandwidths:[| 1; 6 |] calls

(* ------------------------------------------------------------------ *)
(* call classes: a bandwidth and a mean holding time per class *)

let test_call_class () =
  let m = Matrix.uniform ~nodes:3 ~demand:1. in
  let generate ~bandwidth ~mean_holding =
    Trace.generate_classes ~rng:(Rng.create ~seed:1) ~duration:10.
      ~bandwidths:[| 1; bandwidth |] ~mean_holdings:[| 1.; mean_holding |]
      [| m; m |]
  in
  let video = generate ~bandwidth:4 ~mean_holding:2. in
  Alcotest.(check (array int)) "class bandwidths" [| 1; 4 |]
    video.Trace.bandwidths;
  check_invalid "bad bandwidth" (fun () ->
      ignore (generate ~bandwidth:0 ~mean_holding:1.));
  check_invalid "bad holding" (fun () ->
      ignore (generate ~bandwidth:1 ~mean_holding:0.))

(* ------------------------------------------------------------------ *)
(* Kaufman_roberts *)

let test_kr_reduces_to_erlang () =
  (* one class of bandwidth 1: KR is the Erlang distribution *)
  let capacity = 40 and offered = 30. in
  let blocking =
    Kaufman_roberts.class_blocking ~capacity
      [ { Kaufman_roberts.offered; bandwidth = 1 } ]
  in
  feq_at 1e-12 "matches Erlang B"
    (Arnet_erlang.Erlang_b.blocking ~offered ~capacity)
    (List.hd blocking)

let test_kr_distribution_properties () =
  let classes =
    [ { Kaufman_roberts.offered = 10.; bandwidth = 1 };
      { Kaufman_roberts.offered = 2.; bandwidth = 5 } ]
  in
  let q = Kaufman_roberts.distribution ~capacity:30 classes in
  feq_at 1e-9 "sums to 1" 1. (Array.fold_left ( +. ) 0. q);
  Array.iter (fun p -> Alcotest.(check bool) "nonnegative" true (p >= 0.)) q;
  (* wider class blocks more *)
  match Kaufman_roberts.class_blocking ~capacity:30 classes with
  | [ b1; b5 ] -> Alcotest.(check bool) "wideband blocks more" true (b5 > b1)
  | _ -> Alcotest.fail "two classes expected"

let test_kr_two_class_hand_computed () =
  (* C=2, classes: a=1 b=1 and a=0.5 b=2.
     Unnormalized: q0=1; q1 = (1*1*q0)/1 = 1; q2 = (1*q1 + 0.5*2*q0)/2 = 1.
     Normalized: each 1/3.  B_1 = q2 = 1/3; B_2 = q1+q2 = 2/3. *)
  let classes =
    [ { Kaufman_roberts.offered = 1.; bandwidth = 1 };
      { Kaufman_roberts.offered = 0.5; bandwidth = 2 } ]
  in
  let q = Kaufman_roberts.distribution ~capacity:2 classes in
  feq_at 1e-12 "q0" (1. /. 3.) q.(0);
  feq_at 1e-12 "q1" (1. /. 3.) q.(1);
  feq_at 1e-12 "q2" (1. /. 3.) q.(2);
  (match Kaufman_roberts.class_blocking ~capacity:2 classes with
  | [ b1; b2 ] ->
    feq_at 1e-12 "B1" (1. /. 3.) b1;
    feq_at 1e-12 "B2" (2. /. 3.) b2
  | _ -> Alcotest.fail "two classes");
  feq_at 1e-12 "mean occupied" 1.
    (Kaufman_roberts.mean_occupied ~capacity:2 classes)

let test_kr_reservation () =
  let classes = [ { Kaufman_roberts.offered = 8.; bandwidth = 1 } ] in
  let reserved =
    Kaufman_roberts.reservation_blocking ~capacity:12 ~reserve:4 classes
  in
  feq_at 1e-12 "reservation = truncated capacity"
    (Arnet_erlang.Erlang_b.blocking ~offered:8. ~capacity:8)
    (List.hd reserved);
  check_invalid "reserve too large" (fun () ->
      ignore
        (Kaufman_roberts.reservation_blocking ~capacity:5 ~reserve:5 classes))

let test_kr_validation () =
  check_invalid "no classes" (fun () ->
      ignore (Kaufman_roberts.distribution ~capacity:5 []));
  check_invalid "bandwidth too large" (fun () ->
      ignore
        (Kaufman_roberts.distribution ~capacity:5
           [ { Kaufman_roberts.offered = 1.; bandwidth = 6 } ]));
  check_invalid "bad load" (fun () ->
      ignore
        (Kaufman_roberts.distribution ~capacity:5
           [ { Kaufman_roberts.offered = 0.; bandwidth = 1 } ]))

(* ------------------------------------------------------------------ *)
(* multi-rate traces *)

let test_workload_and_trace () =
  let narrow = Matrix.uniform ~nodes:3 ~demand:5. in
  let wide = Matrix.uniform ~nodes:3 ~demand:1. in
  feq_at 1e-9 "offered bandwidth" ((5. *. 6.) +. (6. *. 6.))
    (Matrix.total (Matrix.add narrow (Matrix.scale wide 6.)));
  let rng = Rng.create ~seed:2 in
  let trace = two_class ~rng ~duration:20. narrow wide in
  Alcotest.(check int) "nodes" 3 (Matrix.nodes trace.Trace.matrix);
  let { Trace.times; holdings; ends; classes; bandwidths; _ } = trace in
  Alcotest.(check bool) "calls generated" true (Trace.call_count trace > 400);
  Alcotest.(check bool) "sorted" true (Trace.check_sorted trace);
  Alcotest.(check bool) "deadlines" true
    (Array.for_all Fun.id
       (Array.mapi (fun i e -> e = times.(i) +. holdings.(i)) ends));
  Alcotest.(check (array int)) "class bandwidths" [| 1; 6 |] bandwidths;
  let count c = Array.fold_left (fun n x -> if x = c then n + 1 else n) 0 in
  (* narrowband arrives ~5x as often *)
  let ratio = float_of_int (count 0 classes) /. float_of_int (count 1 classes) in
  Alcotest.(check bool) "class mix plausible" true (ratio > 3.5 && ratio < 7.);
  Alcotest.(check (float 1e-9)) "matrix sums the classes" 36.
    (Matrix.total trace.Trace.matrix);
  (* a bad class list is refused before the first draw *)
  let refused name msg generate =
    let rng = Rng.create ~seed:5 in
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (generate rng : Trace.t));
    Alcotest.(check int) (name ^ ": the rng is undrawn")
      (Rng.bits53 (Rng.create ~seed:5))
      (Rng.bits53 rng)
  in
  refused "empty workload" "Trace.generate: no call classes" (fun rng ->
      Trace.generate_classes ~rng ~duration:20. ~bandwidths:[||]
        ~mean_holdings:[||] [||]);
  refused "size mismatch" "Trace.generate: class matrices differ in size"
    (fun rng ->
      two_class ~rng ~duration:20. narrow (Matrix.uniform ~nodes:4 ~demand:1.))

(* multi-rate traces go through the single-rate trace's validation *)
let test_trace_validation () =
  let m = Matrix.uniform ~nodes:3 ~demand:1. in
  let rng = Rng.create ~seed:1 in
  (* nan first: at infinity an unchecked generator never returns *)
  List.iter
    (fun duration ->
      check_invalid (Printf.sprintf "generate duration %g" duration) (fun () ->
          ignore (two_class ~rng ~duration m m)))
    [ Float.nan; infinity; 0. ];
  let call ?(holding = 1.) src dst = { Trace.time = 1.; src; dst; holding; u = 0. } in
  let of_calls calls = ignore (two_class_calls m ~duration:10. calls) in
  of_calls [ (1, call 0 1) ];
  check_invalid "class index out of range" (fun () -> of_calls [ (2, call 0 1) ]);
  check_invalid "negative class index" (fun () -> of_calls [ (-1, call 0 1) ]);
  check_invalid "src = dst" (fun () -> of_calls [ (0, call 1 1) ]);
  check_invalid "negative holding" (fun () ->
      of_calls [ (0, call ~holding:(-1.) 0 1) ]);
  check_invalid "call outside the duration" (fun () ->
      ignore (two_class_calls m ~duration:0.5 [ (0, call 0 1) ]))

(* ------------------------------------------------------------------ *)
(* multi-rate replay: Engine.run over class columns, the paper's schemes *)

(* one trace per seed from the multi-rate substream (class [c] offers
   [demands.(c)] at [bandwidths.(c)] units, unit mean holding time),
   replayed through every named policy *)
let mr_replicate ~warmup ~seeds ~duration ~graph ~bandwidths demands named =
  let policy = Array.of_list (List.map snd named) in
  Engine.replicate_grid ~caller:"test" ~seeds ~names:(List.map fst named)
    ~context:(fun seed ->
      Trace.generate_classes
        ~rng:(Rng.substream (Rng.create ~seed) "mr-trace")
        ~duration ~bandwidths
        ~mean_holdings:(Array.map (fun _ -> 1.) bandwidths)
        demands)
    ~run:(fun trace pi -> Engine.run ~warmup ~graph ~policy:policy.(pi) trace)
    ()

let mk_call time src dst holding class_index =
  (class_index, { Trace.time; src; dst; holding; u = 0. })

let one_link_setup capacity =
  let g = Graph.create ~nodes:2 [ Link.make ~id:0 ~src:0 ~dst:1 ~capacity ] in
  let routes = Route_table.build g in
  let demand = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then 1. else 0.) in
  (g, routes, demand)

let test_mr_engine_bandwidth_accounting () =
  let g, routes, demand = one_link_setup 10 in
  let policy = Scheme.single_path routes in
  (* a wideband call (6 units) then another wideband (blocked: 12 > 10)
     then a narrowband (fits: 7 <= 10) *)
  let calls =
    [ mk_call 1. 0 1 10. 1; mk_call 2. 0 1 10. 1; mk_call 3. 0 1 10. 0 ]
  in
  let s =
    Engine.run ~warmup:0. ~graph:g ~policy
      (two_class_calls demand ~duration:20. calls)
  in
  Alcotest.(check int) "wideband offered" 2 s.Stats.class_offered.(1);
  Alcotest.(check int) "wideband blocked" 1 s.Stats.class_blocked.(1);
  Alcotest.(check int) "narrowband carried" 0 s.Stats.class_blocked.(0);
  feq_at 1e-12 "bandwidth blocking" (6. /. 13.) (Stats.bandwidth_blocking s);
  feq_at 1e-12 "call blocking" (1. /. 3.) (Stats.blocking s)

let test_mr_engine_departure () =
  let g, routes, demand = one_link_setup 6 in
  let policy = Scheme.single_path routes in
  let calls = [ mk_call 1. 0 1 2. 1; mk_call 4. 0 1 2. 1 ] in
  let s =
    Engine.run ~warmup:0. ~graph:g ~policy
      (two_class_calls demand ~duration:20. calls)
  in
  Alcotest.(check int) "capacity recycled" 0 s.Stats.class_blocked.(1)

let test_mr_controlled_protects () =
  (* triangle, C=6, reserve 3: a wideband alternate (6 units) can never
     use a protected link (6 > 6-3), a narrowband alternate only below
     occupancy 3 *)
  let g = Builders.full_mesh ~nodes:3 ~capacity:6 in
  let routes = Route_table.build g in
  let demand = Matrix.uniform ~nodes:3 ~demand:1. in
  let reserves = Array.make (Graph.link_count g) 3 in
  let controlled = Scheme.controlled ~reserves routes in
  let uncontrolled = Scheme.uncontrolled routes in
  (* saturate direct 0->1 with a wideband call, then try another *)
  let calls =
    two_class_calls demand ~duration:20.
      [ mk_call 1. 0 1 10. 1; mk_call 2. 0 1 10. 1 ]
  in
  let s_ctl = Engine.run ~warmup:0. ~graph:g ~policy:controlled calls in
  Alcotest.(check int) "controlled refuses the wideband alternate" 1
    s_ctl.Stats.class_blocked.(1);
  let s_unc = Engine.run ~warmup:0. ~graph:g ~policy:uncontrolled calls in
  Alcotest.(check int) "uncontrolled detours it" 0 s_unc.Stats.class_blocked.(1);
  Alcotest.(check int) "detour counted as alternate" 1
    s_unc.Stats.carried_alternate

(* every two-tier scheme reads a call's bandwidth, observed or not, with
   a sampled primary or an adaptive level: on one link of capacity 6, a
   wideband call (6 units) arriving while a narrowband call holds 1 unit
   is blocked, never routed over the full link *)
let test_mr_two_tier_reads_bandwidth () =
  let g, routes, demand = one_link_setup 6 in
  let trace =
    two_class_calls demand ~duration:20.
      [ mk_call 1. 0 1 10. 0; mk_call 2. 0 1 10. 1 ]
  in
  let reserves = [| 0 |] in
  let observer (_ : Arnet_obs.Event.t) = () in
  let sampled =
    Arnet_core.Controller.Sampled
      (fun ~src ~dst ~u:_ -> Some (Path.make g [ src; dst ]))
  in
  List.iter
    (fun (policy : Engine.policy) ->
      let s = Engine.run ~warmup:0. ~graph:g ~policy trace in
      Alcotest.(check int)
        (policy.Engine.name ^ " blocks the wideband call")
        1 s.Stats.class_blocked.(1);
      Alcotest.(check int)
        (policy.Engine.name ^ " carries the narrowband call")
        0 s.Stats.class_blocked.(0))
    [ Arnet_core.Scheme.single_path ~observer routes;
      Arnet_core.Scheme.uncontrolled ~observer routes;
      Arnet_core.Scheme.controlled ~observer ~reserves routes;
      Arnet_core.Scheme.controlled ~choice:sampled ~reserves routes;
      Arnet_core.Scheme.controlled_adaptive routes ]

(* an alternate as long as the primary is still an alternate: on a
   4-ring both 0->2 paths have 2 hops, and the second wideband call
   rides the one that is not the primary *)
let test_mr_equal_length_alternate () =
  let g = Builders.ring ~nodes:4 ~capacity:6 in
  let routes = Route_table.build g in
  let demand = Matrix.uniform ~nodes:4 ~demand:1. in
  let trace =
    Trace.of_class_calls ~matrix:demand ~duration:10. ~bandwidths:[| 6 |]
      [ mk_call 1. 0 2 5. 0; mk_call 2. 0 2 5. 0 ]
  in
  let s = Engine.run ~warmup:0. ~graph:g ~policy:(Scheme.uncontrolled routes) trace in
  Alcotest.(check int) "both carried" 0 s.Stats.blocked;
  Alcotest.(check int) "first on the primary" 1 s.Stats.carried_primary;
  Alcotest.(check int) "second on the equal-length alternate" 1
    s.Stats.carried_alternate

let test_mr_protection_levels () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Route_table.build g in
  let demand = Matrix.uniform ~nodes:4 ~demand:40. in
  (* the offered bandwidth: each class's demand times its bandwidth *)
  let matrix =
    Matrix.add demand (Matrix.scale (Matrix.scale demand (1. /. 12.)) 6.)
  in
  let loads = Loads.primary_link_loads routes matrix in
  (* direct link: 40 narrowband + 40/12 wideband * 6 = 60 units *)
  feq_at 1e-9 "bandwidth load" 60. loads.(0);
  let levels = Protection.levels routes matrix ~h:3 in
  Alcotest.(check int) "matches single-rate formula on bandwidth load"
    (Protection.level ~offered:60. ~capacity:100 ~h:3)
    levels.(0);
  check_invalid "reserves length" (fun () ->
      ignore (Scheme.controlled ~reserves:[| 1 |] routes))

let test_mr_replicate_shares_traces () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:20 in
  let routes = Route_table.build g in
  let demand = Matrix.uniform ~nodes:3 ~demand:8. in
  let results =
    mr_replicate ~warmup:5. ~seeds:[ 1; 2 ] ~duration:40. ~graph:g
      ~bandwidths:[| 1 |] [| demand |]
      [ ("mr-single-path", Scheme.single_path routes);
        ("mr-uncontrolled", Scheme.uncontrolled routes) ]
  in
  match results with
  | [ (_, [ a1; a2 ]); (_, [ b1; b2 ]) ] ->
    Alcotest.(check int) "seed 1 same offered" a1.Stats.offered b1.Stats.offered;
    Alcotest.(check int) "seed 2 same offered" a2.Stats.offered b2.Stats.offered
  | _ -> Alcotest.fail "unexpected shape"

(* one two-class trace per seed, replayed through three policies, in
   seed-major shape *)
let test_mr_replicate_golden () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:12 in
  let routes = Route_table.build g in
  let demand = Matrix.uniform ~nodes:4 ~demand:5. in
  let reserves = Array.make (Graph.link_count g) 2 in
  let results =
    mr_replicate ~warmup:5. ~seeds:[ 3; 1; 4 ] ~duration:40. ~graph:g
      ~bandwidths:[| 1; 6 |] [| demand; Matrix.scale demand 0.2 |]
      [ ("mr-single-path", Scheme.single_path routes);
        ("mr-uncontrolled", Scheme.uncontrolled routes);
        ("mr-controlled", Scheme.controlled ~reserves routes) ]
  in
  Alcotest.(check bool) "the runs block something" true
    (List.exists
       (fun (_, runs) -> List.exists (fun s -> Stats.blocking s > 0.) runs)
       results);
  (* frozen per policy and seed: per-class offered and blocked calls,
     offered and blocked bandwidth, alternate-routed calls *)
  let frozen =
    [ ("mr-single-path seed 3", [ 2051; 399; 191; 224; 4445; 1535; 0 ]);
      ("mr-single-path seed 1", [ 2125; 413; 175; 251; 4603; 1681; 0 ]);
      ("mr-single-path seed 4", [ 2212; 418; 259; 236; 4720; 1675; 0 ]);
      ("mr-uncontrolled seed 3", [ 2051; 399; 34; 264; 4445; 1618; 333 ]);
      ("mr-uncontrolled seed 1", [ 2125; 413; 63; 263; 4603; 1641; 327 ]);
      ("mr-uncontrolled seed 4", [ 2212; 418; 59; 268; 4720; 1667; 362 ]);
      ("mr-controlled seed 3", [ 2051; 399; 73; 253; 4445; 1591; 150 ]);
      ("mr-controlled seed 1", [ 2125; 413; 67; 272; 4603; 1699; 137 ]);
      ("mr-controlled seed 4", [ 2212; 418; 76; 265; 4720; 1666; 172 ]) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "frozen two-class replication" frozen
    (List.concat_map
       (fun (name, runs) ->
         List.map2
           (fun seed (s : Stats.t) ->
             ( Printf.sprintf "%s seed %d" name seed,
               [ s.Stats.class_offered.(0); s.Stats.class_offered.(1);
                 s.Stats.class_blocked.(0); s.Stats.class_blocked.(1);
                 s.Stats.offered_bandwidth; s.Stats.blocked_bandwidth;
                 s.Stats.carried_alternate ] ))
           [ 3; 1; 4 ] runs)
       results)

let test_mr_degenerates_to_single_rate_engine () =
  (* one class of bandwidth 1 is the single-rate workload: the same
     draws from the same stream give the same trace, and the paper's
     schemes make exactly the same decisions on both *)
  let g = Builders.full_mesh ~nodes:4 ~capacity:10 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand:9. in
  let rng () = Rng.substream (Rng.create ~seed:21) "trace" in
  let trace = Trace.generate ~rng:(rng ()) ~duration:50. matrix in
  let mr_trace =
    Trace.generate_classes ~rng:(rng ()) ~duration:50. ~bandwidths:[| 1 |]
      ~mean_holdings:[| 1. |] [| matrix |]
  in
  Alcotest.(check bool) "same trace" true (trace = mr_trace);
  let reserves = Array.make (Graph.link_count g) 2 in
  List.iter
    (fun (policy : Engine.policy) ->
      let sr = Engine.run ~warmup:10. ~graph:g ~policy trace in
      let mr = Engine.run ~warmup:10. ~graph:g ~policy mr_trace in
      Alcotest.(check bool)
        (Printf.sprintf "%s: same statistics" policy.Engine.name)
        true (sr = mr))
    [ Scheme.single_path routes;
      Scheme.uncontrolled routes;
      Scheme.controlled ~reserves routes ]

(* frozen two-class golden: the quadrangle at two loads, seeds 1-2, per
   policy and seed the per-class offered and blocked counts and the
   bandwidth totals *)
let mr_golden_runs () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Route_table.build g in
  List.concat_map
    (fun load ->
      let narrow = Matrix.uniform ~nodes:4 ~demand:load in
      let wide = Matrix.uniform ~nodes:4 ~demand:(load /. 12.) in
      let matrix = Matrix.add narrow (Matrix.scale wide 6.) in
      mr_replicate ~warmup:10. ~seeds:[ 1; 2 ] ~duration:40. ~graph:g
        ~bandwidths:[| 1; 6 |] [| narrow; wide |]
        [ ("mr-single-path", Scheme.single_path routes);
          ("mr-uncontrolled", Scheme.uncontrolled routes);
          ("mr-controlled", Scheme.controlled_auto ~matrix routes) ]
      |> List.concat_map (fun (name, runs) ->
             List.mapi
               (fun i (s : Stats.t) ->
                 ( Printf.sprintf "%g %s seed %d" load name (i + 1),
                   [ s.Stats.class_offered.(0); s.Stats.class_offered.(1);
                     s.Stats.class_blocked.(0); s.Stats.class_blocked.(1);
                     s.Stats.offered_bandwidth; s.Stats.blocked_bandwidth ] ))
               runs))
    [ 65.; 90. ]

let test_mr_golden () =
  (* [offered narrow; offered wide; blocked narrow; blocked wide;
     offered bandwidth; blocked bandwidth] *)
  let frozen =
    [ ("65 mr-single-path seed 1", [ 23701; 1963; 934; 503; 35479; 3952 ]);
      ("65 mr-single-path seed 2", [ 23347; 1922; 1003; 512; 34879; 4075 ]);
      ("65 mr-uncontrolled seed 1", [ 23701; 1963; 824; 905; 35479; 6254 ]);
      ("65 mr-uncontrolled seed 2", [ 23347; 1922; 775; 851; 34879; 5881 ]);
      ("65 mr-controlled seed 1", [ 23701; 1963; 893; 507; 35479; 3935 ]);
      ("65 mr-controlled seed 2", [ 23347; 1922; 912; 507; 34879; 3954 ]);
      ("90 mr-single-path seed 1", [ 32581; 2723; 4630; 1685; 48919; 14740 ]);
      ("90 mr-single-path seed 2", [ 32299; 2645; 4447; 1637; 48169; 14269 ]);
      ("90 mr-uncontrolled seed 1", [ 32581; 2723; 5227; 2431; 48919; 19813 ]);
      ("90 mr-uncontrolled seed 2", [ 32299; 2645; 5489; 2347; 48169; 19571 ]);
      ("90 mr-controlled seed 1", [ 32581; 2723; 4630; 1685; 48919; 14740 ]);
      ("90 mr-controlled seed 2", [ 32299; 2645; 4447; 1637; 48169; 14269 ]) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "per-seed class counts and bandwidth totals" frozen (mr_golden_runs ())

let test_mr_kr_agreement_end_to_end () =
  (* single link simulated blocking ~ Kaufman-Roberts *)
  let pairs = Arnet_experiments.Multirate_exp.kaufman_roberts_check ~seeds:[ 1; 2; 3 ] () in
  List.iteri
    (fun ci (analytic, simulated) ->
      Alcotest.(check bool)
        (Printf.sprintf "class %d within 25%% of analytic" ci)
        true
        (Float.abs (simulated -. analytic) < 0.25 *. Float.max analytic 0.02))
    pairs

let () =
  Alcotest.run "multirate"
    [ ("call-class", [ Alcotest.test_case "make" `Quick test_call_class ]);
      ( "kaufman-roberts",
        [ Alcotest.test_case "reduces to Erlang" `Quick
            test_kr_reduces_to_erlang;
          Alcotest.test_case "distribution properties" `Quick
            test_kr_distribution_properties;
          Alcotest.test_case "hand-computed" `Quick
            test_kr_two_class_hand_computed;
          Alcotest.test_case "reservation" `Quick test_kr_reservation;
          Alcotest.test_case "validation" `Quick test_kr_validation ] );
      ( "trace",
        [ Alcotest.test_case "workload and trace" `Quick
            test_workload_and_trace;
          Alcotest.test_case "validation" `Quick test_trace_validation ] );
      ( "engine",
        [ Alcotest.test_case "bandwidth accounting" `Quick
            test_mr_engine_bandwidth_accounting;
          Alcotest.test_case "departure" `Quick test_mr_engine_departure;
          Alcotest.test_case "controlled protects" `Quick
            test_mr_controlled_protects;
          Alcotest.test_case "two-tier schemes read the bandwidth" `Quick
            test_mr_two_tier_reads_bandwidth;
          Alcotest.test_case "equal-length alternate" `Quick
            test_mr_equal_length_alternate;
          Alcotest.test_case "protection levels" `Quick
            test_mr_protection_levels;
          Alcotest.test_case "replicate shares traces" `Quick
            test_mr_replicate_shares_traces;
          Alcotest.test_case "frozen two-class replication" `Quick
            test_mr_replicate_golden;
          Alcotest.test_case "degenerates to single-rate engine" `Quick
            test_mr_degenerates_to_single_rate_engine;
          Alcotest.test_case "frozen two-class golden" `Quick test_mr_golden;
          Alcotest.test_case "KR agreement end-to-end" `Slow
            test_mr_kr_agreement_end_to_end ] ) ]
