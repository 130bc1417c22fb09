(* The observability subsystem: JSON encoding, event round-trips, the
   sinks (ring, JSONL, counters, metrics) — and the load-bearing
   property that a counter sink fed by an observed run reproduces the
   run's Stats exactly. *)

open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
module Obs = Arnet_obs
module E = Obs.Event
module J = Obs.Jsonu

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let event = Alcotest.testable E.pp E.equal

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" what needle hay

(* one event of every kind *)
let specimen_events =
  [ E.Run_start
      { policy = "controlled"; warmup = 5.; duration = 50.; nodes = 4;
        links = 12 };
    E.Arrival { time = 6.25; src = 0; dst = 3; holding = 1.5 };
    E.Primary_attempt { time = 6.25; src = 0; dst = 3; hops = 1;
                        admitted = false };
    E.Alternate_rejected
      { time = 6.25; src = 0; dst = 3; hops = 2; link = 7; occupancy = 19;
        threshold = 18 };
    E.Admit { time = 6.25; src = 0; dst = 3; hops = 2; primary = false;
              links = [| 4; 7 |] };
    E.Block { time = 7.5; src = 1; dst = 2 };
    E.Departure { time = 7.75; links = [| 4; 7 |] };
    E.Run_end { time = 50.; calls = 123 } ]

(* ------------------------------------------------------------------ *)
(* Jsonu *)

let test_jsonu_round_trip () =
  let v =
    J.Obj
      [ ("s", J.String "a\"b\\c\nd\tz");
        ("i", J.Int (-42));
        ("f", J.Float 0.1);
        ("big", J.Float 1.2345678901234567e300);
        ("null", J.Null);
        ("flags", J.List [ J.Bool true; J.Bool false ]);
        ("nested", J.Obj [ ("empty_list", J.List []); ("empty", J.Obj []) ]) ]
  in
  let reparsed = J.parse (J.to_string v) in
  Alcotest.(check string) "stable under reparse" (J.to_string v)
    (J.to_string reparsed);
  (match J.member_exn "f" reparsed with
  | J.Float f -> Alcotest.(check (float 0.)) "float exact" 0.1 f
  | _ -> Alcotest.fail "f not a float");
  Alcotest.(check int) "int exact" (-42) (J.as_int (J.member_exn "i" reparsed));
  Alcotest.(check string) "string with escapes" "a\"b\\c\nd\tz"
    (J.as_string (J.member_exn "s" reparsed))

let test_jsonu_errors () =
  let raises s =
    match J.parse s with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.failf "parse %S should have failed" s
  in
  raises "{";
  raises "[1,]";
  raises "{\"a\":1,}";
  raises "nul";
  raises "\"unterminated";
  raises "1 2"

(* ------------------------------------------------------------------ *)
(* Event *)

let test_event_round_trip () =
  List.iter
    (fun ev ->
      Alcotest.check event (E.kind ev) ev
        (E.of_json_string (E.to_json_string ev)))
    specimen_events;
  Alcotest.(check (list string)) "every kind exercised" (List.sort compare E.kinds)
    (List.sort_uniq compare (List.map E.kind specimen_events));
  match E.of_json_string {|{"ev":"martian","t":0}|} with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail "unknown kind should not decode"

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_wraparound () =
  let r = Obs.Ring.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Obs.Ring.length r);
  let ev t = E.Block { time = t; src = 0; dst = 1 } in
  List.iter (fun t -> Obs.Ring.push r (ev t)) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check int) "length capped" 3 (Obs.Ring.length r);
  Alcotest.(check int) "seen all" 5 (Obs.Ring.seen r);
  Alcotest.(check int) "dropped oldest" 2 (Obs.Ring.dropped r);
  Alcotest.(check (list event)) "kept the newest, oldest first"
    [ ev 3.; ev 4.; ev 5. ] (Obs.Ring.contents r);
  Obs.Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Obs.Ring.length r);
  Alcotest.(check int) "capacity unchanged" 3 (Obs.Ring.capacity r);
  check_invalid "zero capacity" (fun () ->
      ignore (Obs.Ring.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Sink combinators *)

let test_sink_tee_filter () =
  let a = Obs.Ring.create ~capacity:10 and b = Obs.Ring.create ~capacity:10 in
  let only_blocks =
    Obs.Sink.filter (fun ev -> E.kind ev = "block") (Obs.Ring.sink b)
  in
  let sink = Obs.Sink.tee [ Obs.Ring.sink a; only_blocks ] in
  List.iter (Obs.Sink.emit sink) specimen_events;
  Alcotest.(check int) "tee broadcast" (List.length specimen_events)
    (Obs.Ring.length a);
  Alcotest.(check (list event)) "filter kept only blocks"
    [ E.Block { time = 7.5; src = 1; dst = 2 } ]
    (Obs.Ring.contents b)

(* ------------------------------------------------------------------ *)
(* Jsonl *)

let temp_file () = Filename.temp_file "arnet_obs_test" ".jsonl"

let test_jsonl_round_trip () =
  let path = temp_file () in
  let sink = Obs.Jsonl.sink_of_file path in
  List.iter (Obs.Sink.emit sink) specimen_events;
  Obs.Sink.close sink;
  Alcotest.(check (list event)) "file round-trips the stream"
    specimen_events (Obs.Jsonl.read_file path);
  let n =
    Obs.Jsonl.fold_file path ~init:0 ~f:(fun acc _ -> acc + 1)
  in
  Alcotest.(check int) "fold sees every line" (List.length specimen_events) n;
  Sys.remove path

let test_jsonl_malformed () =
  let path = temp_file () in
  let oc = open_out path in
  output_string oc (E.to_json_string (List.hd specimen_events));
  output_string oc "\n\nnot json\n";
  close_out oc;
  (match Obs.Jsonl.fold_file path ~init:0 ~f:(fun acc _ -> acc + 1) with
  | exception J.Parse_error msg ->
    (* the error names the file and the (blank-line-counting) line *)
    check_contains "error location" msg (path ^ ":3")
  | _ -> Alcotest.fail "malformed line should raise");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counters_framing () =
  let c = Obs.Counters.create () in
  let emit = Obs.Counters.emit c in
  emit (E.Run_start
          { policy = "a"; warmup = 5.; duration = 50.; nodes = 3; links = 6 });
  (* warm-up arrival: counted as an arrival but not offered *)
  emit (E.Arrival { time = 1.; src = 0; dst = 1; holding = 1. });
  emit (E.Block { time = 1.; src = 0; dst = 1 });
  emit (E.Arrival { time = 6.; src = 0; dst = 1; holding = 1. });
  emit (E.Admit { time = 6.; src = 0; dst = 1; hops = 1; primary = true;
                  links = [| 0 |] });
  emit (E.Arrival { time = 7.; src = 0; dst = 2; holding = 1. });
  emit (E.Admit { time = 7.; src = 0; dst = 2; hops = 2; primary = false;
                  links = [| 0; 1 |] });
  emit (E.Run_end { time = 50.; calls = 3 });
  emit (E.Run_start
          { policy = "b"; warmup = 5.; duration = 50.; nodes = 3; links = 6 });
  emit (E.Arrival { time = 8.; src = 0; dst = 1; holding = 1. });
  emit (E.Block { time = 8.; src = 0; dst = 1 });
  (match Obs.Counters.runs c with
  | [ ra; rb ] ->
    Alcotest.(check string) "first policy" "a" ra.Obs.Counters.policy;
    Alcotest.(check int) "arrivals include warm-up" 3 ra.Obs.Counters.arrivals;
    Alcotest.(check int) "offered excludes warm-up" 2 ra.Obs.Counters.offered;
    Alcotest.(check int) "warm-up block not counted" 0 ra.Obs.Counters.blocked;
    Alcotest.(check int) "primary carried" 1 ra.Obs.Counters.carried_primary;
    Alcotest.(check int) "alternate carried" 1
      ra.Obs.Counters.carried_alternate;
    Alcotest.(check (option int)) "calls from run_end" (Some 3)
      ra.Obs.Counters.calls;
    Alcotest.(check (float 1e-12)) "run a blocking" 0.
      (Obs.Counters.blocking ra);
    Alcotest.(check (float 1e-12)) "run a alternate fraction" 0.5
      (Obs.Counters.alternate_fraction ra);
    Alcotest.(check (array int)) "hop histogram" [| 0; 1; 1 |]
      (Obs.Counters.hop_histogram ra);
    Alcotest.(check string) "second policy" "b" rb.Obs.Counters.policy;
    Alcotest.(check (float 1e-12)) "run b blocking" 1.
      (Obs.Counters.blocking rb)
  | runs -> Alcotest.failf "expected 2 runs, got %d" (List.length runs));
  Alcotest.(check (list string)) "grouped by policy" [ "a"; "b" ]
    (List.map fst (Obs.Counters.by_policy c))

let test_counters_implicit_run_warmup () =
  let c = Obs.Counters.create ~warmup:5. () in
  let emit = Obs.Counters.emit c in
  emit (E.Arrival { time = 1.; src = 0; dst = 1; holding = 1. });
  emit (E.Arrival { time = 6.; src = 0; dst = 1; holding = 1. });
  emit (E.Alternate_rejected
          { time = 6.; src = 0; dst = 1; hops = 2; link = 3; occupancy = 9;
            threshold = 8 });
  emit (E.Alternate_rejected
          { time = 6.5; src = 0; dst = 1; hops = 3; link = 3; occupancy = 9;
            threshold = 8 });
  emit (E.Block { time = 6.5; src = 0; dst = 1 });
  match Obs.Counters.runs c with
  | [ r ] ->
    Alcotest.(check string) "implicit run has no policy" ""
      r.Obs.Counters.policy;
    Alcotest.(check int) "offered" 1 r.Obs.Counters.offered;
    Alcotest.(check int) "rejections" 2 r.Obs.Counters.alternate_rejections;
    Alcotest.(check (list (pair int int))) "per-link rejections" [ (3, 2) ]
      (Obs.Counters.rejections_by_link r)
  | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs)

(* ------------------------------------------------------------------ *)
(* observed engine runs: the stream reproduces Stats *)

let quadrangle_setup ~demand =
  let g = Builders.full_mesh ~nodes:4 ~capacity:10 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand in
  (g, routes, matrix)

let check_run_matches_stats run (stats : Stats.t) =
  Alcotest.(check int) "offered" stats.Stats.offered run.Obs.Counters.offered;
  Alcotest.(check int) "blocked" stats.Stats.blocked run.Obs.Counters.blocked;
  Alcotest.(check int) "carried primary" stats.Stats.carried_primary
    run.Obs.Counters.carried_primary;
  Alcotest.(check int) "carried alternate" stats.Stats.carried_alternate
    run.Obs.Counters.carried_alternate;
  Alcotest.(check int) "alternate hops" stats.Stats.alternate_hops
    run.Obs.Counters.alternate_hops;
  Alcotest.(check (float 1e-12)) "blocking" (Stats.blocking stats)
    (Obs.Counters.blocking run);
  Alcotest.(check (float 1e-12)) "alternate fraction"
    (Stats.alternate_fraction stats)
    (Obs.Counters.alternate_fraction run)

let test_counter_sink_matches_run_stats () =
  let g, routes, matrix = quadrangle_setup ~demand:9. in
  let counters = Obs.Counters.create () in
  let observer = Obs.Counters.emit counters in
  let policy =
    Arnet_core.Scheme.controlled ~observer
      ~reserves:(Array.make (Graph.link_count g) 2)
      routes
  in
  let rng = Rng.create ~seed:17 in
  let trace = Trace.generate ~rng ~duration:30. matrix in
  let stats = Engine.run ~warmup:5. ~observer ~graph:g ~policy trace in
  match Obs.Counters.runs counters with
  | [ run ] ->
    Alcotest.(check string) "policy name" "controlled"
      run.Obs.Counters.policy;
    Alcotest.(check (option int)) "run_end call count"
      (Some (Trace.call_count trace))
      run.Obs.Counters.calls;
    check_run_matches_stats run stats;
    Alcotest.(check bool) "stream carries decision detail" true
      (run.Obs.Counters.primary_attempts > 0);
    (* every measured call that was offered attempted its primary *)
    Alcotest.(check int) "one primary attempt per offered call"
      run.Obs.Counters.offered run.Obs.Counters.primary_attempts;
    (* in-window departures were streamed too *)
    Alcotest.(check bool) "departures observed" true
      (run.Obs.Counters.departures > 0)
  | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs)

let test_replicate_observed_matches_stats () =
  let g, routes, matrix = quadrangle_setup ~demand:9. in
  let counters = Obs.Counters.create () in
  let emit = Obs.Counters.emit counters in
  let policies =
    [ Arnet_core.Scheme.single_path ~observer:emit routes;
      Arnet_core.Scheme.uncontrolled ~observer:emit routes ]
  in
  let results =
    Engine.replicate ~warmup:5. ~observe:(fun ~seed:_ ~policy:_ -> Some emit)
      ~seeds:[ 41; 42 ] ~duration:25. ~graph:g ~matrix ~policies ()
  in
  let groups = Obs.Counters.by_policy counters in
  Alcotest.(check (list string)) "policy grouping mirrors replicate"
    (List.map fst results) (List.map fst groups);
  List.iter2
    (fun (_, stats_list) (_, runs) ->
      Alcotest.(check int) "one frame per seed" (List.length stats_list)
        (List.length runs);
      List.iter2 check_run_matches_stats runs stats_list)
    results groups

let test_unobserved_runs_emit_nothing () =
  (* the zero-cost default: no observer, no events — and identical
     decisions whether or not a run is observed *)
  let g, routes, matrix = quadrangle_setup ~demand:9. in
  let counters = Obs.Counters.create () in
  let observer = Obs.Counters.emit counters in
  let rng = Rng.create ~seed:23 in
  let trace = Trace.generate ~rng ~duration:20. matrix in
  let plain =
    Engine.run ~warmup:5. ~graph:g
      ~policy:(Arnet_core.Scheme.uncontrolled routes) trace
  in
  Alcotest.(check int) "no events without an observer" 0
    (Obs.Counters.total_events counters);
  let observed =
    Engine.run ~warmup:5. ~observer ~graph:g
      ~policy:(Arnet_core.Scheme.uncontrolled ~observer routes)
      trace
  in
  Alcotest.(check int) "same blocked either way" plain.Stats.blocked
    observed.Stats.blocked;
  Alcotest.(check bool) "observed run streamed" true
    (Obs.Counters.total_events counters > 0)

(* observed two-tier runs on nominal NSFNet, frozen per run.  The engine
   and the scheme feed one counter sink, so besides the verdicts the pin
   holds the decision detail only an observed scheme emits: primary
   attempts and admissions, alternate rejections, and
   sum(link * count) over the per-link rejections *)
let observed_fingerprint (r : Obs.Counters.run) =
  [ r.Obs.Counters.offered;
    r.Obs.Counters.blocked;
    r.Obs.Counters.carried_primary;
    r.Obs.Counters.carried_alternate;
    r.Obs.Counters.primary_attempts;
    r.Obs.Counters.primary_admitted;
    r.Obs.Counters.alternate_rejections;
    List.fold_left
      (fun acc (link, count) -> acc + (link * count))
      0
      (Obs.Counters.rejections_by_link r) ]

let observed_runs () =
  let routes, nominal = Arnet_experiments.Internet.nominal () in
  let g = Route_table.graph routes in
  let run ?script label matrix seed scheme =
    let counters = Obs.Counters.create () in
    let observer = Obs.Counters.emit counters in
    let policy = scheme observer in
    let trace =
      Trace.generate
        ~rng:(Rng.substream (Rng.create ~seed) "trace")
        ~duration:12. matrix
    in
    ignore
      (Engine.run ~warmup:4. ~observer ?script ~graph:g ~policy trace
        : Stats.t);
    match Obs.Counters.runs counters with
    | [ r ] ->
      ( Printf.sprintf "%s seed %d %s" label seed r.Obs.Counters.policy,
        observed_fingerprint r )
    | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs)
  in
  let schemes matrix =
    [ (fun observer -> Arnet_core.Scheme.single_path ~observer routes);
      (fun observer -> Arnet_core.Scheme.uncontrolled ~observer routes);
      (fun observer ->
        Arnet_core.Scheme.controlled_auto ~observer ~matrix routes) ]
  in
  let sweep =
    List.concat_map
      (fun scale ->
        let matrix = Matrix.scale nominal scale in
        List.concat_map
          (fun seed ->
            List.map
              (run (Printf.sprintf "%.1f" scale) matrix seed)
              (schemes matrix))
          [ 1; 2 ])
      [ 1.0; 1.3 ]
  in
  let module S = Script in
  let script =
    S.of_events
      [ { S.time = 5.; link = 3; action = S.Fail };
        { S.time = 6.; link = 11; action = S.Fail };
        { S.time = 7.5; link = 20; action = S.Fail };
        { S.time = 8.; link = 3; action = S.Repair };
        { S.time = 9.; link = 3; action = S.Fail };
        { S.time = 10.; link = 11; action = S.Repair };
        { S.time = 10.5; link = 20; action = S.Repair };
        { S.time = 11.; link = 3; action = S.Repair } ]
  in
  sweep
  @ [ run ~script "1.0 scripted" nominal 1 (fun observer ->
          Arnet_core.Scheme.controlled_auto ~observer ~matrix:nominal routes)
    ]

let test_observed_golden () =
  let frozen =
    [ ("1.0 seed 1 single-path",
        [ 7721; 1054; 6667; 0; 7721; 6667; 0; 0 ]);
      ("1.0 seed 1 uncontrolled",
        [ 7721; 868; 5867; 986; 7721; 5867; 8646; 192386 ]);
      ("1.0 seed 1 controlled",
        [ 7721; 974; 6662; 85; 7721; 6662; 9466; 186983 ]);
      ("1.0 seed 2 single-path",
        [ 7713; 1067; 6646; 0; 7713; 6646; 0; 0 ]);
      ("1.0 seed 2 uncontrolled",
        [ 7713; 814; 5927; 972; 7713; 5927; 8116; 178176 ]);
      ("1.0 seed 2 controlled",
        [ 7713; 962; 6639; 112; 7713; 6639; 9185; 187265 ]);
      ("1.3 seed 1 single-path",
        [ 10030; 2259; 7771; 0; 10030; 7771; 0; 0 ]);
      ("1.3 seed 1 uncontrolled",
        [ 10030; 2352; 6018; 1660; 10030; 6018; 22379; 482116 ]);
      ("1.3 seed 1 controlled",
        [ 10030; 2207; 7771; 52; 10030; 7771; 20316; 331121 ]);
      ("1.3 seed 2 single-path",
        [ 10104; 2244; 7860; 0; 10104; 7860; 0; 0 ]);
      ("1.3 seed 2 uncontrolled",
        [ 10104; 2248; 6267; 1589; 10104; 6267; 21448; 459522 ]);
      ("1.3 seed 2 controlled",
        [ 10104; 2173; 7860; 71; 10104; 7860; 19960; 324351 ]);
      ("1.0 scripted seed 1 controlled",
        [ 7721; 1238; 6158; 325; 7721; 6158; 11657; 231900 ]) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "offered, blocked, primary, alternate, primary attempts and \
     admissions, rejections, sum(link * rejections)"
    frozen (observed_runs ())

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_registry () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~help:"calls in" "calls_total" in
  Obs.Metrics.inc c;
  Obs.Metrics.inc_by c 2.;
  Alcotest.(check (float 0.)) "counter value" 3. (Obs.Metrics.counter_value c);
  check_invalid "negative increment" (fun () -> Obs.Metrics.inc_by c (-1.));
  let c' = Obs.Metrics.counter reg "calls_total" in
  Obs.Metrics.inc c';
  Alcotest.(check (float 0.)) "same (name,labels) shares the series" 4.
    (Obs.Metrics.counter_value c);
  let g0 = Obs.Metrics.gauge reg ~labels:[ ("link", "0") ] "occupancy" in
  let g1 = Obs.Metrics.gauge reg ~labels:[ ("link", "1") ] "occupancy" in
  Obs.Metrics.set g0 5.;
  Obs.Metrics.add g0 (-2.);
  Obs.Metrics.set g1 7.;
  Alcotest.(check (float 0.)) "gauge set/add" 3. (Obs.Metrics.gauge_value g0);
  Alcotest.(check (float 0.)) "labels separate series" 7.
    (Obs.Metrics.gauge_value g1);
  check_invalid "kind mismatch on a taken name" (fun () ->
      ignore (Obs.Metrics.gauge reg "calls_total"));
  check_invalid "invalid metric name" (fun () ->
      ignore (Obs.Metrics.counter reg "0bad"));
  check_invalid "invalid label name" (fun () ->
      ignore (Obs.Metrics.counter reg ~labels:[ ("0bad", "1") ] "ok_name"))

let test_metrics_histogram () =
  let reg = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram reg ~buckets:[| 1.; 2.; 4. |] "holding_time"
  in
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.5; 3.; 8. ];
  Alcotest.(check int) "count" 4 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1e-12)) "sum" 13. (Obs.Metrics.histogram_sum h);
  (match Obs.Metrics.histogram_buckets h with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, cinf) ] ->
    Alcotest.(check (float 0.)) "bound 1" 1. b1;
    Alcotest.(check int) "le 1" 1 c1;
    Alcotest.(check (float 0.)) "bound 2" 2. b2;
    Alcotest.(check int) "le 2 cumulative" 2 c2;
    Alcotest.(check (float 0.)) "bound 4" 4. b3;
    Alcotest.(check int) "le 4 cumulative" 3 c3;
    Alcotest.(check bool) "+Inf bound" true (binf = infinity);
    Alcotest.(check int) "+Inf holds all" 4 cinf
  | l -> Alcotest.failf "expected 4 buckets, got %d" (List.length l));
  check_invalid "non-increasing buckets" (fun () ->
      ignore (Obs.Metrics.histogram reg ~buckets:[| 2.; 1. |] "bad"));
  check_invalid "re-register with different buckets" (fun () ->
      ignore (Obs.Metrics.histogram reg ~buckets:[| 1. |] "holding_time"));
  let lb = Obs.Metrics.log_buckets ~lo:0.01 ~hi:100. ~per_decade:1 in
  Alcotest.(check int) "one bound per decade" 5 (Array.length lb);
  Array.iteri
    (fun i b ->
      Alcotest.(check (float 1e-9)) "log spacing" (0.01 *. (10. ** float_of_int i)) b)
    lb

let test_metrics_rendering () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~help:"total simulation events" "events_total" in
  Obs.Metrics.inc_by c 7.;
  let g =
    Obs.Metrics.gauge reg ~labels:[ ("link", "a\\b\n") ] "occupancy"
  in
  Obs.Metrics.set g 2.;
  let h = Obs.Metrics.histogram reg ~buckets:[| 1. |] "latency" in
  Obs.Metrics.observe h 0.5;
  let text = Obs.Metrics.to_prometheus reg in
  check_contains "help line" text "# HELP events_total total simulation events";
  check_contains "type line" text "# TYPE events_total counter";
  check_contains "counter sample" text "events_total 7.0";
  check_contains "escaped label value" text
    {|occupancy{link="a\\b\n"} 2.0|};
  check_contains "histogram bucket" text {|latency_bucket{le="1.0"} 1|};
  check_contains "inf bucket" text {|latency_bucket{le="+Inf"} 1|};
  check_contains "histogram sum" text "latency_sum 0.5";
  check_contains "histogram count" text "latency_count 1"

(* finding or adding a series is O(1) in the family's size: 20 000
   label sets, the per-pair families of a 142-node network, register
   in well under the bound (a list-scanning registry took about 16 s),
   and exposition still lists them in registration order *)
let test_metrics_register_scales () =
  let reg = Obs.Metrics.create () in
  let n = 20_000 in
  (* a permutation of 0 .. n-1, so registration order is not label order *)
  let key i = string_of_int (i * 7_919 mod n) in
  let labels i = [ ("src", key i); ("dst", "0") ] in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    Obs.Metrics.inc (Obs.Metrics.counter reg ~labels:(labels i) "pair_total")
  done;
  for i = 0 to n - 1 do
    Obs.Metrics.inc (Obs.Metrics.counter reg ~labels:(labels i) "pair_total")
  done;
  let seconds = Unix.gettimeofday () -. t0 in
  if seconds > 5. then
    Alcotest.failf "registering %d series took %.1f s" n seconds;
  let samples =
    String.split_on_char '\n' (Obs.Metrics.to_prometheus reg)
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string)) "registration order, one series per set"
    (List.init n (fun i ->
         Printf.sprintf {|pair_total{dst="0",src="%s"} 2.0|} (key i)))
    samples

let test_metrics_sink () =
  let m = Obs.Metrics_sink.create (Obs.Metrics.create ()) in
  let emit = Obs.Metrics_sink.emit m in
  emit (E.Run_start
          { policy = "p"; warmup = 0.; duration = 10.; nodes = 2; links = 2 });
  emit (E.Arrival { time = 1.; src = 0; dst = 1; holding = 2. });
  emit (E.Admit { time = 1.; src = 0; dst = 1; hops = 1; primary = true;
                  links = [| 0 |] });
  emit (E.Arrival { time = 2.; src = 0; dst = 1; holding = 2. });
  emit (E.Alternate_rejected
          { time = 2.; src = 0; dst = 1; hops = 2; link = 1; occupancy = 5;
            threshold = 4 });
  emit (E.Block { time = 2.; src = 0; dst = 1 });
  emit (E.Departure { time = 3.; links = [| 0 |] });
  emit (E.Run_end { time = 10.; calls = 2 });
  Alcotest.(check int) "events seen" 8 (Obs.Metrics_sink.events m);
  let reg = Obs.Metrics_sink.registry m in
  let value name labels =
    Obs.Metrics.counter_value (Obs.Metrics.counter reg ~labels name)
  in
  Alcotest.(check (float 0.)) "offered" 2. (value "arnet_calls_offered_total" []);
  Alcotest.(check (float 0.)) "blocked" 1. (value "arnet_calls_blocked_total" []);
  Alcotest.(check (float 0.)) "admitted primary" 1.
    (value "arnet_calls_admitted_total" [ ("route", "primary") ]);
  Alcotest.(check (float 0.)) "per-link rejections" 1.
    (value "arnet_alt_rejected_total" [ ("link", "1") ]);
  Alcotest.(check (float 0.)) "arrival events counted" 2.
    (value "arnet_events_total" [ ("kind", "arrival") ]);
  Obs.Sink.close (Obs.Metrics_sink.sink m);
  let text = Obs.Metrics.to_prometheus reg in
  check_contains "throughput gauge rendered" text "arnet_events_per_second";
  (* occupancy is set by its owner: admits and departures leave it unset *)
  Alcotest.(check bool) "no occupancy gauge from events" false
    (contains text "arnet_link_occupancy")

(* the snapshot of [arn simulate --metrics], written after every run
   has ended, carries no occupancy gauge: no owner holds a live
   occupancy there, and gauges summed from admit and departure events
   over the runs, whose calls still up at each run's end never depart,
   read 779-863 on links of 100 *)
let test_simulate_occupancy () =
  let path = Filename.temp_file "arnet-sim" ".prom" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    [| "../bin/arn.exe"; "simulate"; "-n"; "quadrangle"; "-l"; "90";
       "--quick"; "--metrics"; path |]
  in
  let status =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        snd
          (Unix.waitpid []
             (Unix.create_process argv.(0) argv Unix.stdin null null)))
  in
  let lines =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all))
  in
  Alcotest.(check bool) "arn simulate exits 0" true (status = Unix.WEXITED 0);
  (* the per-link gauges of one family, by link label *)
  let gauges family =
    List.filter_map
      (fun line ->
        Scanf.sscanf_opt line "%s@{link=%S} %f" (fun name link v ->
            if name = family then Some (link, v) else None)
        |> Option.join)
      lines
  in
  (* the snapshot has its per-link series: the capacities are there *)
  Alcotest.(check int) "a capacity per quadrangle link" 12
    (List.length (gauges "arnet_link_capacity"));
  Alcotest.(check (list (pair string (float 0.))))
    "no occupancy gauge" []
    (gauges "arnet_link_occupancy")

(* ------------------------------------------------------------------ *)
(* exposition escaping *)

let test_escaping_goldens () =
  Alcotest.(check string) "label escaping" {|a\\b\"c\nd|}
    (Obs.Metrics.escape_label_value "a\\b\"c\nd");
  Alcotest.(check string) "unknown escapes pass through" {|\x|}
    (Obs.Metrics.unescape_label_value {|\x|});
  Alcotest.(check string) "trailing backslash passes through" {|a\|}
    (Obs.Metrics.unescape_label_value {|a\|});
  Alcotest.(check string) "help escaping" {|multi\nline \\ slash "quoted"|}
    (Obs.Metrics.escape_help "multi\nline \\ slash \"quoted\"");
  (* a help text with specials renders escaped, on one line *)
  let reg = Obs.Metrics.create () in
  ignore
    (Obs.Metrics.counter reg ~help:"line one\nline two \\ done" "weird_total");
  let text = Obs.Metrics.to_prometheus reg in
  check_contains "escaped help line" text
    {|# HELP weird_total line one\nline two \\ done|};
  List.iter
    (fun line ->
      if contains line "# HELP" then
        check_contains "help stays on its line" line "weird_total")
    (String.split_on_char '\n' text)

let test_escape_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"unescape (escape s) = s"
       QCheck.(string_gen_of_size Gen.(0 -- 64) Gen.char)
       (fun s ->
         Obs.Metrics.unescape_label_value (Obs.Metrics.escape_label_value s)
         = s))

(* ------------------------------------------------------------------ *)
(* the HTTP exporter's pure half *)

let test_http_parse () =
  (match Obs.Http_exporter.parse_request_line "GET /metrics HTTP/1.0" with
  | Ok (meth, target) ->
    Alcotest.(check string) "method" "GET" meth;
    Alcotest.(check string) "target" "/metrics" target
  | Error e -> Alcotest.failf "parse failed: %s" e);
  let bad line =
    match Obs.Http_exporter.parse_request_line line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error _ -> ()
  in
  bad "";
  bad "GET /metrics";
  bad "GET  /metrics  HTTP/1.0";
  bad "\x16\x03\x01\x02\x00";
  bad "SETUP 0 1";
  Alcotest.(check string) "query stripped" "/metrics"
    (Obs.Http_exporter.path_of_target "/metrics?seconds=5");
  Alcotest.(check string) "fragment stripped" "/statz"
    (Obs.Http_exporter.path_of_target "/statz#top")

let test_http_handle () =
  let hits = ref 0 in
  let routes =
    [ ("/metrics",
       fun () ->
         incr hits;
         (Obs.Http_exporter.prometheus_content_type, "# TYPE x counter\n"))
    ]
  in
  let handle = Obs.Http_exporter.handle ~routes in
  let r = handle "GET /metrics HTTP/1.1" in
  Alcotest.(check int) "200" 200 r.Obs.Http_exporter.status;
  Alcotest.(check string) "exposition content type"
    "text/plain; version=0.0.4; charset=utf-8"
    r.Obs.Http_exporter.content_type;
  Alcotest.(check int) "producer ran once" 1 !hits;
  let r = handle "GET /metrics?x=1 HTTP/1.0" in
  Alcotest.(check int) "query ignored" 200 r.Obs.Http_exporter.status;
  let r = handle "HEAD /metrics HTTP/1.0" in
  Alcotest.(check int) "HEAD allowed" 200 r.Obs.Http_exporter.status;
  Alcotest.(check string) "HEAD has no body" "" r.Obs.Http_exporter.body;
  Alcotest.(check int) "404" 404
    (handle "GET /nope HTTP/1.0").Obs.Http_exporter.status;
  Alcotest.(check int) "405" 405
    (handle "POST /metrics HTTP/1.0").Obs.Http_exporter.status;
  Alcotest.(check int) "400" 400
    (handle "gibberish" ).Obs.Http_exporter.status;
  (* a 404/400 never runs a producer *)
  Alcotest.(check int) "producers untouched by errors" 3 !hits

let test_http_render () =
  let r = Obs.Http_exporter.ok ~content_type:"text/plain; charset=utf-8" "ok\n" in
  Alcotest.(check string) "wire bytes"
    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
     Content-Length: 3\r\nConnection: close\r\n\r\nok\n"
    (Obs.Http_exporter.render r)

(* ------------------------------------------------------------------ *)
(* logger *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_log_file f =
  let path = Filename.temp_file "arnet-log" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc);
      read_file path)

let test_logger_text () =
  let out =
    with_log_file (fun oc ->
        let l = Obs.Logger.create ~clock:(fun () -> 0.) oc in
        Alcotest.(check bool) "info enabled" true (Obs.Logger.enabled l Obs.Logger.Info);
        Alcotest.(check bool) "debug filtered" false
          (Obs.Logger.enabled l Obs.Logger.Debug);
        Obs.Logger.debug l "dropped";
        Obs.Logger.info l "listening"
          ~fields:[ ("addr", J.String "unix:/tmp/s"); ("n", J.Int 4) ];
        Obs.Logger.warn l "slow")
  in
  Alcotest.(check string) "text lines"
    "1970-01-01T00:00:00.000Z INFO listening addr=unix:/tmp/s n=4\n\
     1970-01-01T00:00:00.000Z WARN slow\n"
    out;
  (* the null logger swallows everything without a channel *)
  Obs.Logger.error Obs.Logger.null "nobody hears this"

let test_logger_jsonl () =
  let out =
    with_log_file (fun oc ->
        let l =
          Obs.Logger.create ~level:Obs.Logger.Debug ~format:Obs.Logger.Jsonl
            ~clock:(fun () -> 86400.) oc
        in
        Obs.Logger.debug l "probe" ~fields:[ ("seconds", J.Float 0.25) ])
  in
  let doc = J.parse (String.trim out) in
  Alcotest.(check string) "ts" "1970-01-02T00:00:00.000Z"
    (J.as_string (J.member_exn "ts" doc));
  Alcotest.(check string) "level" "debug"
    (J.as_string (J.member_exn "level" doc));
  Alcotest.(check string) "msg" "probe" (J.as_string (J.member_exn "msg" doc));
  Alcotest.(check (float 0.)) "field" 0.25
    (J.as_float (J.member_exn "seconds" doc));
  Alcotest.(check (option string)) "level parsing" (Some "warn")
    (Option.map Obs.Logger.level_to_string (Obs.Logger.level_of_string "warning"))

(* ------------------------------------------------------------------ *)
(* network time series (per-pair counters, capacity/reserve gauges) *)

let test_network_series () =
  let m = Obs.Metrics_sink.create (Obs.Metrics.create ()) in
  let emit = Obs.Metrics_sink.emit m in
  emit (E.Admit { time = 1.; src = 0; dst = 1; hops = 1; primary = true;
                  links = [| 0 |] });
  emit (E.Admit { time = 2.; src = 0; dst = 1; hops = 1; primary = true;
                  links = [| 0 |] });
  emit (E.Block { time = 3.; src = 2; dst = 0 });
  Obs.Metrics_sink.set_network m ~capacities:[| 20; 20 |] ~reserves:[| 3; 0 |];
  let reg = Obs.Metrics_sink.registry m in
  let counter labels name =
    Obs.Metrics.counter_value (Obs.Metrics.counter reg ~labels name)
  in
  let gauge labels name =
    Obs.Metrics.gauge_value (Obs.Metrics.gauge reg ~labels name)
  in
  Alcotest.(check (float 0.)) "pair accepted" 2.
    (counter [ ("src", "0"); ("dst", "1") ] "arnet_pair_accepted_total");
  Alcotest.(check (float 0.)) "pair blocked" 1.
    (counter [ ("src", "2"); ("dst", "0") ] "arnet_pair_blocked_total");
  Alcotest.(check (float 0.)) "capacity gauge" 20.
    (gauge [ ("link", "1") ] "arnet_link_capacity");
  Alcotest.(check (float 0.)) "reserve gauge" 3.
    (gauge [ ("link", "0") ] "arnet_link_reserve");
  (* re-publishing updates in place, no duplicate series *)
  Obs.Metrics_sink.set_network m ~capacities:[| 20; 20 |] ~reserves:[| 4; 0 |];
  Alcotest.(check (float 0.)) "reserve gauge updated" 4.
    (gauge [ ("link", "0") ] "arnet_link_reserve");
  let text = Obs.Metrics.to_prometheus reg in
  check_contains "pair series rendered" text
    {|arnet_pair_accepted_total{dst="1",src="0"} 2.0|};
  check_contains "reserve rendered" text {|arnet_link_reserve{link="0"} 4.0|}

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "jsonu round trip" `Quick test_jsonu_round_trip;
          Alcotest.test_case "jsonu errors" `Quick test_jsonu_errors;
          Alcotest.test_case "event round trip" `Quick test_event_round_trip ] );
      ( "sinks",
        [ Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "tee and filter" `Quick test_sink_tee_filter;
          Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "jsonl malformed line" `Quick
            test_jsonl_malformed ] );
      ( "counters",
        [ Alcotest.test_case "run framing" `Quick test_counters_framing;
          Alcotest.test_case "implicit run warm-up" `Quick
            test_counters_implicit_run_warmup;
          Alcotest.test_case "counter sink matches run stats" `Quick
            test_counter_sink_matches_run_stats;
          Alcotest.test_case "replicate observed matches stats" `Quick
            test_replicate_observed_matches_stats;
          Alcotest.test_case "frozen observed two-tier golden" `Quick
            test_observed_golden;
          Alcotest.test_case "unobserved runs emit nothing" `Quick
            test_unobserved_runs_emit_nothing ] );
      ( "metrics",
        [ Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "rendering" `Quick test_metrics_rendering;
          Alcotest.test_case "register scales" `Quick
            test_metrics_register_scales;
          Alcotest.test_case "engine bridge" `Quick test_metrics_sink;
          Alcotest.test_case "simulate occupancy unset" `Quick
            test_simulate_occupancy;
          Alcotest.test_case "escaping goldens" `Quick test_escaping_goldens;
          test_escape_round_trip;
          Alcotest.test_case "network series" `Quick test_network_series ] );
      ( "http",
        [ Alcotest.test_case "request line parsing" `Quick test_http_parse;
          Alcotest.test_case "routing" `Quick test_http_handle;
          Alcotest.test_case "wire rendering" `Quick test_http_render ] );
      ( "logger",
        [ Alcotest.test_case "text format" `Quick test_logger_text;
          Alcotest.test_case "jsonl format" `Quick test_logger_jsonl ] ) ]
