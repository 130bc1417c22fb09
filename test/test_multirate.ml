open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_multirate

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let feq_at tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Call_class *)

let test_call_class () =
  let c = Call_class.make ~name:"video" ~mean_holding:2. ~bandwidth:4 () in
  Alcotest.(check string) "name" "video" c.Call_class.name;
  Alcotest.(check int) "bandwidth" 4 c.Call_class.bandwidth;
  Alcotest.(check int) "narrowband" 1 Call_class.narrowband.Call_class.bandwidth;
  Alcotest.(check int) "wideband" 6 Call_class.wideband.Call_class.bandwidth;
  check_invalid "bad bandwidth" (fun () ->
      ignore (Call_class.make ~bandwidth:0 ()));
  check_invalid "bad holding" (fun () ->
      ignore (Call_class.make ~mean_holding:0. ~bandwidth:1 ()))

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
(* Mr_trace *)

let test_workload_and_trace () =
  let narrow = Matrix.uniform ~nodes:3 ~demand:5. in
  let wide = Matrix.uniform ~nodes:3 ~demand:1. in
  let w =
    Mr_trace.workload
      [ (Call_class.narrowband, narrow); (Call_class.wideband, wide) ]
  in
  Alcotest.(check int) "nodes" 3 (Mr_trace.nodes w);
  feq_at 1e-9 "offered bandwidth" ((5. *. 6.) +. (6. *. 6.))
    (Mr_trace.offered_bandwidth w);
  let rng = Rng.create ~seed:2 in
  let trace = Mr_trace.generate ~rng ~duration:20. w in
  let calls = trace.Mr_trace.calls in
  Alcotest.(check bool) "calls generated" true (Array.length calls > 400);
  Alcotest.(check bool) "columns match records" true
    (Array.for_all2
       (fun c t -> c.Mr_trace.time = t)
       calls trace.Mr_trace.times
    && Array.for_all2
         (fun (c : Mr_trace.call) e -> c.Mr_trace.time +. c.Mr_trace.holding = e)
         calls trace.Mr_trace.ends);
  let sorted = ref true and prev = ref 0. in
  let narrow_count = ref 0 and wide_count = ref 0 in
  Array.iter
    (fun c ->
      if c.Mr_trace.time < !prev then sorted := false;
      prev := c.Mr_trace.time;
      if c.Mr_trace.class_index = 0 then incr narrow_count else incr wide_count)
    calls;
  Alcotest.(check bool) "sorted" true !sorted;
  (* narrowband arrives ~5x as often *)
  let ratio = float_of_int !narrow_count /. float_of_int !wide_count in
  Alcotest.(check bool) "class mix plausible" true (ratio > 3.5 && ratio < 7.);
  check_invalid "empty workload" (fun () -> ignore (Mr_trace.workload []));
  check_invalid "size mismatch" (fun () ->
      ignore
        (Mr_trace.workload
           [ (Call_class.narrowband, narrow);
             (Call_class.wideband, Matrix.uniform ~nodes:4 ~demand:1.) ]))

(* ------------------------------------------------------------------ *)
(* Mr_engine + Mr_scheme *)

let mk_call time src dst holding class_index =
  { Mr_trace.time; src; dst; holding; class_index; u = 0. }

let one_link_setup capacity =
  let g = Graph.create ~nodes:2 [ Link.make ~id:0 ~src:0 ~dst:1 ~capacity ] in
  let routes = Route_table.build g in
  let demand = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then 1. else 0.) in
  let w =
    Mr_trace.workload
      [ (Call_class.narrowband, demand); (Call_class.wideband, demand) ]
  in
  (g, routes, w)

let test_mr_engine_bandwidth_accounting () =
  let g, routes, w = one_link_setup 10 in
  let policy = Mr_scheme.single_path routes w in
  (* a wideband call (6 units) then another wideband (blocked: 12 > 10)
     then a narrowband (fits: 7 <= 10) *)
  let calls =
    [| mk_call 1. 0 1 10. 1; mk_call 2. 0 1 10. 1; mk_call 3. 0 1 10. 0 |]
  in
  let s = Mr_engine.run ~warmup:0. ~graph:g ~workload:w ~policy ~duration:20.
      (Mr_trace.of_calls calls) in
  Alcotest.(check int) "wideband offered" 2 s.Mr_engine.offered.(1);
  Alcotest.(check int) "wideband blocked" 1 s.Mr_engine.blocked.(1);
  Alcotest.(check int) "narrowband carried" 0 s.Mr_engine.blocked.(0);
  feq_at 1e-12 "bandwidth blocking" (6. /. 13.)
    (Mr_engine.bandwidth_blocking s);
  feq_at 1e-12 "call blocking" (1. /. 3.) (Mr_engine.call_blocking s)

let test_mr_engine_departure () =
  let g, routes, w = one_link_setup 6 in
  let policy = Mr_scheme.single_path routes w in
  let calls = [| mk_call 1. 0 1 2. 1; mk_call 4. 0 1 2. 1 |] in
  let s = Mr_engine.run ~warmup:0. ~graph:g ~workload:w ~policy ~duration:20.
      (Mr_trace.of_calls calls) in
  Alcotest.(check int) "capacity recycled" 0 s.Mr_engine.blocked.(1)

let test_mr_controlled_protects () =
  (* triangle, C=6, reserve 3: a wideband alternate (6 units) can never
     use a protected link (6 > 6-3), a narrowband alternate only below
     occupancy 3 *)
  let g = Builders.full_mesh ~nodes:3 ~capacity:6 in
  let routes = Route_table.build g in
  let demand = Matrix.uniform ~nodes:3 ~demand:1. in
  let w =
    Mr_trace.workload
      [ (Call_class.narrowband, demand); (Call_class.wideband, demand) ]
  in
  let reserves = Array.make (Graph.link_count g) 3 in
  let controlled = Mr_scheme.controlled ~reserves routes w in
  let uncontrolled = Mr_scheme.uncontrolled routes w in
  (* saturate direct 0->1 with a wideband call, then try another *)
  let calls =
    Mr_trace.of_calls [| mk_call 1. 0 1 10. 1; mk_call 2. 0 1 10. 1 |]
  in
  let s_ctl =
    Mr_engine.run ~warmup:0. ~graph:g ~workload:w ~policy:controlled
      ~duration:20. calls
  in
  Alcotest.(check int) "controlled refuses the wideband alternate" 1
    s_ctl.Mr_engine.blocked.(1);
  let s_unc =
    Mr_engine.run ~warmup:0. ~graph:g ~workload:w ~policy:uncontrolled
      ~duration:20. calls
  in
  Alcotest.(check int) "uncontrolled detours it" 0 s_unc.Mr_engine.blocked.(1);
  Alcotest.(check int) "detour counted as alternate" 1
    s_unc.Mr_engine.carried_alternate

let test_mr_protection_levels () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Route_table.build g in
  let demand = Matrix.uniform ~nodes:4 ~demand:40. in
  let w =
    Mr_trace.workload
      [ (Call_class.narrowband, demand);
        (Call_class.wideband, Matrix.scale demand (1. /. 12.)) ]
  in
  let loads = Mr_scheme.bandwidth_loads routes w in
  (* direct link: 40 narrowband + 40/12 wideband * 6 = 60 units *)
  feq_at 1e-9 "bandwidth load" 60. loads.(0);
  let levels = Mr_scheme.protection_levels routes w ~h:3 in
  Alcotest.(check int) "matches single-rate formula on bandwidth load"
    (Arnet_core.Protection.level ~offered:60. ~capacity:100 ~h:3)
    levels.(0);
  check_invalid "reserves length" (fun () ->
      ignore (Mr_scheme.controlled ~reserves:[| 1 |] routes w))

let test_mr_replicate_shares_traces () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:20 in
  let routes = Route_table.build g in
  let demand = Matrix.uniform ~nodes:3 ~demand:8. in
  let w = Mr_trace.workload [ (Call_class.narrowband, demand) ] in
  let results =
    Mr_engine.replicate ~warmup:5. ~seeds:[ 1; 2 ] ~duration:40. ~graph:g
      ~workload:w
      ~policies:
        [ Mr_scheme.single_path routes w; Mr_scheme.uncontrolled routes w ]
      ()
  in
  match results with
  | [ (_, [ a1; a2 ]); (_, [ b1; b2 ]) ] ->
    Alcotest.(check int) "seed 1 same offered"
      (Array.fold_left ( + ) 0 a1.Mr_engine.offered)
      (Array.fold_left ( + ) 0 b1.Mr_engine.offered);
    Alcotest.(check int) "seed 2 same offered"
      (Array.fold_left ( + ) 0 a2.Mr_engine.offered)
      (Array.fold_left ( + ) 0 b2.Mr_engine.offered)
  | _ -> Alcotest.fail "unexpected shape"

(* the parallel path shards (seed x policy) runs over domains, each
   regenerating its seed's trace: it must reproduce the sequential
   statistics exactly, in the same seed-major shape *)
let test_mr_replicate_parallel_matches_sequential () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:12 in
  let routes = Route_table.build g in
  let demand = Matrix.uniform ~nodes:4 ~demand:5. in
  let w =
    Mr_trace.workload
      [ (Call_class.narrowband, demand);
        (Call_class.wideband, Matrix.scale demand 0.2) ]
  in
  let reserves = Array.make (Graph.link_count g) 2 in
  let go domains =
    Mr_engine.replicate ~warmup:5. ~domains ~seeds:[ 3; 1; 4 ] ~duration:40.
      ~graph:g ~workload:w
      ~policies:
        [ Mr_scheme.single_path routes w;
          Mr_scheme.uncontrolled routes w;
          Mr_scheme.controlled ~reserves routes w ]
      ()
  in
  let sequential = go 1 in
  Alcotest.(check bool) "the runs block something" true
    (List.exists
       (fun (_, runs) ->
         List.exists (fun s -> Mr_engine.call_blocking s > 0.) runs)
       sequential);
  Alcotest.(check bool) "~domains:3 = ~domains:1" true (go 3 = sequential)

let test_mr_degenerates_to_single_rate_engine () =
  (* one class of bandwidth 1: the multi-rate engine must make exactly
     the decisions of the single-rate engine on the same call sequence *)
  let g = Builders.full_mesh ~nodes:4 ~capacity:10 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand:9. in
  let w = Mr_trace.workload [ (Call_class.narrowband, matrix) ] in
  let rng = Rng.substream (Rng.create ~seed:21) "trace" in
  let trace = Trace.generate ~rng ~duration:50. matrix in
  let mr_trace =
    Mr_trace.of_calls
      (Array.map
         (fun (c : Trace.call) ->
           { Mr_trace.time = c.Trace.time;
             src = c.Trace.src;
             dst = c.Trace.dst;
             holding = c.Trace.holding;
             class_index = 0;
             u = c.Trace.u })
         trace.Trace.calls)
  in
  List.iter
    (fun (sr_policy, mr_policy) ->
      let sr = Engine.run ~warmup:10. ~graph:g ~policy:sr_policy trace in
      let mr =
        Mr_engine.run ~warmup:10. ~graph:g ~workload:w ~policy:mr_policy
          ~duration:50. mr_trace
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: same offered" sr_policy.Engine.name)
        sr.Stats.offered
        (Array.fold_left ( + ) 0 mr.Mr_engine.offered);
      Alcotest.(check int)
        (Printf.sprintf "%s: same blocked" sr_policy.Engine.name)
        sr.Stats.blocked
        (Array.fold_left ( + ) 0 mr.Mr_engine.blocked))
    [ (Arnet_core.Scheme.single_path routes, Mr_scheme.single_path routes w);
      (Arnet_core.Scheme.uncontrolled routes, Mr_scheme.uncontrolled routes w);
      ( Arnet_core.Scheme.controlled
          ~reserves:(Array.make (Graph.link_count g) 2)
          routes,
        Mr_scheme.controlled
          ~reserves:(Array.make (Graph.link_count g) 2)
          routes w ) ]

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
            test_workload_and_trace ] );
      ( "engine",
        [ Alcotest.test_case "bandwidth accounting" `Quick
            test_mr_engine_bandwidth_accounting;
          Alcotest.test_case "departure" `Quick test_mr_engine_departure;
          Alcotest.test_case "controlled protects" `Quick
            test_mr_controlled_protects;
          Alcotest.test_case "protection levels" `Quick
            test_mr_protection_levels;
          Alcotest.test_case "replicate shares traces" `Quick
            test_mr_replicate_shares_traces;
          Alcotest.test_case "replicate ~domains:3 = ~domains:1" `Quick
            test_mr_replicate_parallel_matches_sequential;
          Alcotest.test_case "degenerates to single-rate engine" `Quick
            test_mr_degenerates_to_single_rate_engine;
          Alcotest.test_case "KR agreement end-to-end" `Slow
            test_mr_kr_agreement_end_to_end ] ) ]
