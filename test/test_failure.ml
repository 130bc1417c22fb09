(* The failure layer: the script codec and its algebra, stochastic
   failure models compiled down to scripts, and scripted replays through
   [Engine.run ~script] with their drop/failover accounting — including
   the frozen K4 golden run and the frozen scripted replication. *)

open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core
open Arnet_failure

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let k4 ?(capacity = 100) () = Builders.full_mesh ~nodes:4 ~capacity

let ev time link action = { Script.time; link; action }

(* ------------------------------------------------------------------ *)
(* scripts *)

let test_script_basics () =
  Alcotest.(check bool) "empty is empty" true (Script.is_empty Script.empty);
  Alcotest.(check int) "empty length" 0 (Script.length Script.empty);
  Alcotest.(check int) "empty max_link" (-1) (Script.max_link Script.empty);
  let s =
    Script.of_events [ ev 5. 1 Script.Repair; ev 2. 3 Script.Fail ]
  in
  Alcotest.(check int) "length" 2 (Script.length s);
  Alcotest.(check int) "max_link" 3 (Script.max_link s);
  (match Script.events s with
  | [ a; b ] ->
    Alcotest.(check bool) "sorted by time" true
      (a.Script.time <= b.Script.time);
    Alcotest.(check int) "first is the t=2 fail" 3 a.Script.link
  | _ -> Alcotest.fail "two events expected");
  (* ties keep the given order: FAIL then REPAIR at one instant means
     exactly that *)
  let tie =
    Script.of_events [ ev 1. 0 Script.Fail; ev 1. 0 Script.Repair ]
  in
  (match Script.events tie with
  | [ { Script.action = Script.Fail; _ };
      { Script.action = Script.Repair; _ } ] -> ()
  | _ -> Alcotest.fail "tie order lost");
  let m = Script.merge s tie in
  Alcotest.(check int) "merged length" 4 (Script.length m);
  Alcotest.(check bool) "merge result is sorted" true
    (let ts = List.map (fun e -> e.Script.time) (Script.events m) in
     List.sort compare ts = ts);
  check_invalid "negative time" (fun () ->
      ignore (Script.of_events [ ev (-1.) 0 Script.Fail ]));
  check_invalid "nan time" (fun () ->
      ignore (Script.of_events [ ev Float.nan 0 Script.Fail ]));
  check_invalid "negative link" (fun () ->
      ignore (Script.of_events [ ev 1. (-2) Script.Fail ]))

let test_script_text () =
  let text =
    "# storm\n\n5 FAIL 0\n5 FAIL 1\n20.25 REPAIR 0\n\t20.5\tREPAIR\t1\n"
  in
  (match Script.of_string text with
  | Ok s ->
    Alcotest.(check int) "comments and blanks skipped" 4 (Script.length s);
    (match Script.of_string (Script.to_string s) with
    | Ok s' ->
      Alcotest.(check bool) "parse (print s) = s" true (Script.equal s s')
    | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  let expect_error_line n text =
    match Script.of_string text with
    | Ok _ -> Alcotest.failf "%S should not parse" text
    | Error msg ->
      let needle = Printf.sprintf "line %d" n in
      if not (contains msg needle) then
        Alcotest.failf "error for %S should name %s, got %S" text needle msg
  in
  expect_error_line 1 "5 EXPLODE 3";
  expect_error_line 2 "1 FAIL 0\nx FAIL 1";
  expect_error_line 1 "-1 FAIL 0";
  expect_error_line 1 "1 FAIL -2";
  expect_error_line 3 "# ok\n2 FAIL 1\n2 FAIL"

let test_script_file () =
  let s =
    Script.of_events
      [ ev 1. 0 Script.Fail;
        ev (1. /. 3.) 4 Script.Fail;
        ev 2.125 0 Script.Repair ]
  in
  let path = Filename.temp_file "arnet-script" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Script.to_file path s;
      match Script.of_file path with
      | Ok s' ->
        Alcotest.(check bool) "file round-trip (incl. 1/3)" true
          (Script.equal s s')
      | Error e -> Alcotest.fail e);
  match Script.of_file "/nonexistent/arnet-script" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file should be an Error"

let prop_script_text_roundtrip =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (let* n = int_bound 10_000 in
         let* link = int_bound 40 in
         let* fail = bool in
         return
           (ev
              (float_of_int n /. 8.)
              link
              (if fail then Script.Fail else Script.Repair))))
  in
  QCheck2.Test.make ~count:200 ~name:"script: parse (print s) = s" gen
    (fun events ->
      let s = Script.of_events events in
      match Script.of_string (Script.to_string s) with
      | Ok s' -> Script.equal s s'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* models *)

(* every link's stream must alternate FAIL/REPAIR starting from up *)
let check_alternation g s =
  let alive = Array.make (Graph.link_count g) true in
  List.iter
    (fun e ->
      (match e.Script.action with
      | Script.Fail ->
        Alcotest.(check bool) "fail only while alive" true
          alive.(e.Script.link)
      | Script.Repair ->
        Alcotest.(check bool) "repair only while failed" true
          (not alive.(e.Script.link)));
      alive.(e.Script.link) <- e.Script.action = Script.Repair)
    (Script.events s)

let check_window ~duration s =
  List.iter
    (fun e ->
      Alcotest.(check bool) "time inside the window" true
        (e.Script.time >= 0. && e.Script.time < duration))
    (Script.events s)

let test_model_independent () =
  let g = k4 () in
  let rng () = Rng.substream (Rng.create ~seed:9) "failure" in
  let gen () =
    Model.independent ~rng:(rng ()) ~duration:50. ~mtbf:10. ~mttr:2. g
  in
  let s = gen () in
  Alcotest.(check bool) "deterministic per seed" true
    (Script.equal s (gen ()));
  Alcotest.(check bool) "nonempty at this rate" true
    (not (Script.is_empty s));
  Alcotest.(check bool) "within the graph" true
    (Script.max_link s < Graph.link_count g);
  check_window ~duration:50. s;
  check_alternation g s;
  check_invalid "duration <= 0" (fun () ->
      ignore (Model.independent ~rng:(rng ()) ~duration:0. ~mtbf:1. ~mttr:1. g));
  check_invalid "mtbf <= 0" (fun () ->
      ignore
        (Model.independent ~rng:(rng ()) ~duration:1. ~mtbf:(-1.) ~mttr:1. g));
  check_invalid "mttr not finite" (fun () ->
      ignore
        (Model.independent ~rng:(rng ()) ~duration:1. ~mtbf:1.
           ~mttr:Float.infinity g))

let test_model_srlg () =
  let g = k4 () in
  let groups = Model.edge_groups g in
  Alcotest.(check int) "K4 has 6 undirected fibers" 6 (List.length groups);
  List.iter
    (fun grp ->
      Alcotest.(check int) "both directions grouped" 2 (List.length grp))
    groups;
  let rng () = Rng.substream (Rng.create ~seed:3) "failure" in
  let s =
    Model.srlg ~rng:(rng ()) ~duration:80. ~mtbf:20. ~mttr:4. ~groups g
  in
  Alcotest.(check bool) "deterministic per seed" true
    (Script.equal s
       (Model.srlg ~rng:(rng ()) ~duration:80. ~mtbf:20. ~mttr:4. ~groups g));
  Alcotest.(check bool) "nonempty at this rate" true (not (Script.is_empty s));
  check_window ~duration:80. s;
  check_alternation g s;
  (* group members share every event instant *)
  let times link action =
    List.filter_map
      (fun e ->
        if e.Script.link = link && e.Script.action = action then
          Some e.Script.time
        else None)
      (Script.events s)
  in
  List.iter
    (fun grp ->
      match grp with
      | first :: rest ->
        List.iter
          (fun other ->
            Alcotest.(check (list (float 0.))) "fail together"
              (times first Script.Fail) (times other Script.Fail);
            Alcotest.(check (list (float 0.))) "repair together"
              (times first Script.Repair) (times other Script.Repair))
          rest
      | [] -> ())
    groups;
  check_invalid "empty group" (fun () ->
      ignore
        (Model.srlg ~rng:(rng ()) ~duration:1. ~mtbf:1. ~mttr:1.
           ~groups:[ [] ] g));
  check_invalid "out-of-range link" (fun () ->
      ignore
        (Model.srlg ~rng:(rng ()) ~duration:1. ~mtbf:1. ~mttr:1.
           ~groups:[ [ Graph.link_count g ] ] g));
  check_invalid "overlapping groups" (fun () ->
      ignore
        (Model.srlg ~rng:(rng ()) ~duration:1. ~mtbf:1. ~mttr:1.
           ~groups:[ [ 0; 1 ]; [ 1; 2 ] ] g))

let test_model_regional () =
  let g = k4 () in
  let rng () = Rng.substream (Rng.create ~seed:5) "failure" in
  (* every node at the center and a generous radius: each outage is a
     total blackout, so FAIL bursts come in multiples of the link count *)
  let coords = Array.make (Graph.node_count g) (0.5, 0.5) in
  let gen () =
    Model.regional ~coords ~rng:(rng ()) ~duration:200. ~rate:0.05 ~mttr:2.
      ~radius:1. g
  in
  let s = gen () in
  Alcotest.(check bool) "deterministic per seed" true
    (Script.equal s (gen ()));
  Alcotest.(check bool) "nonempty at this rate" true (not (Script.is_empty s));
  check_window ~duration:200. s;
  let fails =
    List.length
      (List.filter
         (fun e -> e.Script.action = Script.Fail)
         (Script.events s))
  in
  Alcotest.(check int) "blackouts hit every link" 0
    (fails mod Graph.link_count g);
  (* default coordinates are a deterministic function of the rng *)
  let c1 = Model.unit_square_coords ~rng:(rng ()) ~nodes:7 in
  let c2 = Model.unit_square_coords ~rng:(rng ()) ~nodes:7 in
  Alcotest.(check bool) "coords deterministic" true (c1 = c2);
  Array.iter
    (fun (x, y) ->
      Alcotest.(check bool) "coords on the unit square" true
        (x >= 0. && x < 1. && y >= 0. && y < 1.))
    c1;
  check_invalid "coords length mismatch" (fun () ->
      ignore
        (Model.regional
           ~coords:[| (0.5, 0.5) |]
           ~rng:(rng ()) ~duration:1. ~rate:1. ~mttr:1. ~radius:1. g));
  check_invalid "radius <= 0" (fun () ->
      ignore
        (Model.regional ~rng:(rng ()) ~duration:1. ~rate:1. ~mttr:1.
           ~radius:0. g))

(* ------------------------------------------------------------------ *)
(* scripted replays: accounting on a hand-built workload *)

let call time src dst holding = { Trace.time; src; dst; holding; u = 0. }

let test_engine_accounting () =
  let g = k4 ~capacity:5 () in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand:1. in
  let cut = (Graph.find_link_exn g ~src:0 ~dst:1).Link.id in
  (* A is in flight over the cut at t=2 (dropped); B arrives during the
     outage (failover to an alternate); C arrives after the repair
     (primary, no failover) *)
  let trace =
    Trace.of_calls ~matrix ~duration:12.
      [ call 1. 0 1 10.; call 3. 0 1 1.; call 6. 0 1 1. ]
  in
  let script =
    Script.of_events [ ev 2. cut Script.Fail; ev 5. cut Script.Repair ]
  in
  let policy = Scheme.uncontrolled routes in
  let r = Engine.run ~warmup:0. ~script ~graph:g ~policy trace in
  Alcotest.(check int) "offered" 3 r.Stats.offered;
  Alcotest.(check int) "none blocked" 0 r.Stats.blocked;
  Alcotest.(check int) "A dropped by the cut" 1 r.Stats.dropped;
  Alcotest.(check int) "B failed over" 1 r.Stats.failovers;
  Alcotest.(check int) "B was an alternate carry" 1 r.Stats.carried_alternate;
  (* the same run with warmup beyond every event measures nothing *)
  let r' = Engine.run ~warmup:11. ~script ~graph:g ~policy trace in
  Alcotest.(check int) "warmup gates offered" 0 r'.Stats.offered;
  Alcotest.(check int) "warmup gates drops" 0 r'.Stats.dropped;
  Alcotest.(check int) "warmup gates failovers" 0 r'.Stats.failovers;
  (* a departure tying a FAIL at one instant completes, not drops *)
  let tie_trace =
    Trace.of_calls ~matrix ~duration:10. [ call 1. 0 1 1. ]
  in
  let tie_script = Script.of_events [ ev 2. cut Script.Fail ] in
  let rt = Engine.run ~warmup:0. ~script:tie_script ~graph:g ~policy tie_trace in
  Alcotest.(check int) "departure wins the tie" 0 rt.Stats.dropped;
  (* single-path blocks outright while its primary is down *)
  let sp =
    Engine.run ~warmup:0. ~script ~graph:g ~policy:(Scheme.single_path routes)
      trace
  in
  Alcotest.(check int) "single-path blocks B" 1 sp.Stats.blocked;
  Alcotest.(check int) "single-path never fails over" 0 sp.Stats.failovers;
  (* an observer sees the drop as A's departure at the cut, and every
     admitted call departs once *)
  let departures = ref [] and admits = ref 0 in
  let observer = function
    | Arnet_obs.Event.Admit _ -> incr admits
    | Arnet_obs.Event.Departure { time; _ } ->
      departures := time :: !departures
    | _ -> ()
  in
  ignore
    (Engine.run ~warmup:0. ~observer ~script ~graph:g ~policy trace : Stats.t);
  Alcotest.(check int) "three admits" 3 !admits;
  Alcotest.(check (list (float 0.))) "A departs at the cut, B and C on time"
    [ 2.; 4.; 7. ] (List.rev !departures);
  (* a failed link is a full link: a policy routing over it regardless
     trips the engine's full-link guard *)
  let blind =
    let p = Route_table.primary routes ~src:0 ~dst:1 in
    { Engine.name = "blind";
      decide = (fun ~occupancy:_ _ _ -> Engine.Routed p);
      primary = (fun _ _ -> Some p) }
  in
  check_invalid "routing over a failed link" (fun () ->
      ignore (Engine.run ~warmup:0. ~script ~graph:g ~policy:blind trace));
  (* scripts mentioning links outside the graph are refused *)
  check_invalid "script outside the graph" (fun () ->
      ignore
        (Engine.run
           ~script:
             (Script.of_events [ ev 1. (Graph.link_count g) Script.Fail ])
           ~graph:g ~policy trace))

(* an empty script replays exactly like no script: same decisions call
   for call, and all-zero drop/failover counters *)
let test_engine_matches_plain_engine () =
  let g = k4 () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:80. in
  let routes = Route_table.build g in
  let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
  let go script =
    Engine.replicate_fresh ~warmup:5. ?script ~seeds:[ 1; 2; 3 ]
      ~duration:30. ~graph:g ~matrix
      ~policies:(fun () ->
        [ Scheme.controlled ~reserves routes; Scheme.uncontrolled routes ])
      ()
  in
  let plain = go None in
  let withf = go (Some (fun ~seed:_ -> Script.empty)) in
  Alcotest.(check bool) "identical statistics" true (plain = withf);
  List.iter
    (fun (_, runs) ->
      List.iter
        (fun (r : Stats.t) ->
          Alcotest.(check int) "no drops" 0 r.Stats.dropped;
          Alcotest.(check int) "no failovers" 0 r.Stats.failovers)
        runs)
    withf

(* ------------------------------------------------------------------ *)
(* determinism: frozen golden numbers *)

let golden_graph () = k4 ()
let golden_matrix () = Matrix.uniform ~nodes:4 ~demand:80.

let golden_script ~seed ~duration g =
  Model.independent
    ~rng:(Rng.substream (Rng.create ~seed) "failure")
    ~duration ~mtbf:30. ~mttr:4. g

let test_engine_golden () =
  let g = golden_graph () in
  let matrix = golden_matrix () in
  let routes = Route_table.build g in
  let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
  let duration = 40. in
  let r =
    match
      Engine.replicate_fresh ~warmup:5. ~seeds:[ 1 ] ~duration ~graph:g
        ~matrix
        ~script:(fun ~seed -> golden_script ~seed ~duration g)
        ~policies:(fun () -> [ Scheme.controlled ~reserves routes ])
        ()
    with
    | [ (_, [ r ]) ] -> r
    | _ -> Alcotest.fail "one policy, one seed expected"
  in
  (* frozen numbers: any drift in trace generation, script generation or
     replay semantics shows up here *)
  Alcotest.(check int) "offered" 33758 r.Stats.offered;
  Alcotest.(check int) "blocked" 3650 r.Stats.blocked;
  Alcotest.(check int) "dropped" 1423 r.Stats.dropped;
  Alcotest.(check int) "failovers" 1136 r.Stats.failovers;
  let od src dst =
    match Stats.od_blocking r ~src ~dst with
    | Some b -> b
    | None -> Alcotest.failf "pair %d->%d offered nothing" src dst
  in
  Alcotest.(check (float 1e-12)) "per-pair blocking 0->1"
    0.013333333333333334 (od 0 1);
  Alcotest.(check (float 1e-12)) "per-pair blocking 2->3"
    0.12681031437654539 (od 2 3)

(* all four sweep policies of [Failure_exp] at one failure rate (mtbf
   50, mttr 5), per seed: offered, blocked, dropped, failovers *)
let four_policy_runs () =
  let g = golden_graph () in
  let matrix = golden_matrix () in
  let routes = Route_table.build g in
  let prot = Route_table.protected g in
  let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
  let prot_reserves = Protection.levels prot matrix ~h:(Route_table.h prot) in
  let duration = 40. in
  Engine.replicate_fresh ~warmup:5. ~seeds:[ 1; 2 ] ~duration ~graph:g
    ~matrix
    ~script:(fun ~seed ->
      Model.independent
        ~rng:(Rng.substream (Rng.create ~seed) "failure")
        ~duration ~mtbf:50. ~mttr:5. g)
    ~policies:(fun () ->
      [ Scheme.controlled ~reserves routes;
        Scheme.uncontrolled routes;
        Scheme.protected ~reserves:prot_reserves prot;
        Controller.compile ~name:"protected-r0" ~routes:prot
          ~admission:
            (Admission.unprotected
               ~capacities:
                 (Array.map (fun (l : Link.t) -> l.capacity) (Graph.links g)))
          ~allow_alternates:true () ])
    ()
  |> List.concat_map (fun (name, runs) ->
         List.mapi
           (fun i (r : Stats.t) ->
             ( Printf.sprintf "%s seed %d" name (i + 1),
               [ r.Stats.offered; r.Stats.blocked; r.Stats.dropped;
                 r.Stats.failovers ] ))
           runs)

let test_four_policy_fingerprint () =
  let frozen =
    [ ("controlled seed 1", [ 33758; 2982; 605; 1051 ]);
      ("controlled seed 2", [ 33809; 3997; 934; 837 ]);
      ("uncontrolled seed 1", [ 33758; 3910; 628; 2027 ]);
      ("uncontrolled seed 2", [ 33809; 4848; 979; 1958 ]);
      ("protected seed 1", [ 33758; 3419; 559; 554 ]);
      ("protected seed 2", [ 33809; 4247; 898; 553 ]);
      ("protected-r0 seed 1", [ 33758; 3698; 581; 1482 ]);
      ("protected-r0 seed 2", [ 33809; 4615; 904; 1275 ]) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "offered, blocked, dropped, failovers" frozen (four_policy_runs ())

let test_replicate_scripted_golden () =
  let g = golden_graph () in
  let matrix = golden_matrix () in
  let routes = Route_table.build g in
  let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
  let duration = 25. in
  let results =
    Engine.replicate_fresh ~warmup:5. ~seeds:[ 1; 2; 3; 4 ] ~duration
      ~graph:g ~matrix
      ~script:(fun ~seed -> golden_script ~seed ~duration g)
      ~policies:(fun () ->
        [ Scheme.controlled ~reserves routes;
          Scheme.uncontrolled routes;
          Scheme.protected ~reserves:
              (Protection.levels
                 (Route_table.protected g)
                 matrix
                 ~h:(Route_table.h (Route_table.protected g)))
            (Route_table.protected g) ])
      ()
  in
  let seq =
    List.concat_map
      (fun (name, runs) ->
        List.mapi
          (fun i (r : Stats.t) ->
            ( Printf.sprintf "%s seed %d" name (i + 1),
              [ r.Stats.offered; r.Stats.blocked; r.Stats.dropped;
                r.Stats.failovers ] ))
          runs)
      results
  in
  let frozen =
    [ ("controlled seed 1", [ 19370; 2251; 629; 594 ]);
      ("controlled seed 2", [ 19547; 3224; 966; 614 ]);
      ("controlled seed 3", [ 19177; 1840; 436; 578 ]);
      ("controlled seed 4", [ 19083; 1655; 451; 691 ]);
      ("uncontrolled seed 1", [ 19370; 2740; 658; 1346 ]);
      ("uncontrolled seed 2", [ 19547; 3753; 1008; 1335 ]);
      ("uncontrolled seed 3", [ 19177; 2298; 454; 1123 ]);
      ("uncontrolled seed 4", [ 19083; 2255; 481; 1314 ]);
      ("protected seed 1", [ 19370; 2471; 600; 339 ]);
      ("protected seed 2", [ 19547; 3334; 913; 445 ]);
      ("protected seed 3", [ 19177; 2024; 418; 333 ]);
      ("protected seed 4", [ 19083; 1867; 437; 425 ]) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "offered, blocked, dropped, failovers" frozen seq;
  (* and the storm actually bit: some run dropped or failed over *)
  Alcotest.(check bool) "the scripts actually cut links" true
    (List.exists
       (function _, [ _; _; d; f ] -> d > 0 || f > 0 | _ -> false)
       seq)

(* ------------------------------------------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "failure"
    [ ( "script",
        [ Alcotest.test_case "basics and validation" `Quick test_script_basics;
          Alcotest.test_case "text format" `Quick test_script_text;
          Alcotest.test_case "file round-trip" `Quick test_script_file;
          qcheck prop_script_text_roundtrip ] );
      ( "model",
        [ Alcotest.test_case "independent" `Quick test_model_independent;
          Alcotest.test_case "srlg" `Quick test_model_srlg;
          Alcotest.test_case "regional" `Quick test_model_regional ] );
      ( "engine",
        [ Alcotest.test_case "drop/failover accounting" `Quick
            test_engine_accounting;
          Alcotest.test_case "empty script = plain engine" `Slow
            test_engine_matches_plain_engine;
          Alcotest.test_case "frozen K4 golden" `Quick test_engine_golden;
          Alcotest.test_case "frozen four-policy fingerprint" `Quick
            test_four_policy_fingerprint;
          Alcotest.test_case "frozen scripted replication" `Quick
            test_replicate_scripted_golden ] ) ]
