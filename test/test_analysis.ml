(* Static-analysis pass: diagnostics, the list of checks, and the
   Section-3.1 minimality property of Protection.level. *)

open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_core
open Arnet_analysis

let quadrangle_config () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:80. in
  let routes = Route_table.build g in
  let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
  Check.config ~routes ~matrix ~reserves g

let nsfnet_config () =
  let g = Nsfnet.graph () in
  let _, matrix = Arnet_experiments.Internet.nominal () in
  let routes = Route_table.build g in
  let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
  Check.config ~routes ~matrix ~reserves g

(* ------------------------------------------------------------------ *)
(* clean seed configurations *)

let test_quadrangle_clean () =
  let ds = Lint.run (quadrangle_config ()) in
  Alcotest.(check int)
    (String.concat "; " (List.map Diagnostic.to_string ds))
    0 (List.length ds);
  Alcotest.(check int) "exit code" 0 (Lint.exit_code ds);
  Alcotest.(check string) "summary" "clean" (Lint.summary ds)

let test_nsfnet_clean () =
  let ds = Lint.run (nsfnet_config ()) in
  (* Table 1 has six links whose primary demand exceeds C = 100 (e.g.
     10->11 at 167 Erlangs); those surface as advisory warnings, never
     as errors, and leave the exit code at 0. *)
  Alcotest.(check bool) "no errors" false (Lint.has_errors ds);
  Alcotest.(check int) "exit code" 0 (Lint.exit_code ds);
  let overloads =
    List.filter (fun d -> d.Diagnostic.code = "traffic-overload") ds
  in
  Alcotest.(check int) "all findings are overload warnings"
    (List.length ds) (List.length overloads);
  Alcotest.(check int) "six overloaded links" 6 (List.length overloads);
  (* strict mode refuses to pass a warning-carrying configuration *)
  Alcotest.(check int) "strict exit code" 1 (Lint.exit_code ~strict:true ds)

(* ------------------------------------------------------------------ *)
(* corrupted configurations *)

let test_zero_capacity () =
  let g =
    Graph.with_capacities
      (Builders.full_mesh ~nodes:4 ~capacity:100)
      [ (0, 1, 0) ]
  in
  let ds = Lint.run ~only:[ "topology" ] (Check.config g) in
  Alcotest.(check bool) "has errors" true (Lint.has_errors ds);
  Alcotest.(check bool) "topo-capacity reported" true
    (List.exists (fun d -> d.Diagnostic.code = "topo-capacity") ds);
  (* the zero-capacity link also breaks capacity symmetry with its twin *)
  Alcotest.(check bool) "topo-asymmetric reported" true
    (List.exists (fun d -> d.Diagnostic.code = "topo-asymmetric") ds);
  Alcotest.(check int) "exit code" 1 (Lint.exit_code ds)

let test_asymmetric_and_disconnected () =
  let g = Builders.line ~nodes:3 ~capacity:10 in
  (* drop one direction of the first edge: symmetry broken, and node 1
     is no longer reachable from node 0 *)
  let g = Graph.without_links g [ (0, 1) ] in
  let ds = Topology_check.run (Check.config g) in
  Alcotest.(check bool) "topo-asymmetric" true
    (List.exists (fun d -> d.Diagnostic.code = "topo-asymmetric") ds);
  Alcotest.(check bool) "topo-disconnected" true
    (List.exists (fun d -> d.Diagnostic.code = "topo-disconnected") ds)

let test_corrupted_reserves () =
  let config = quadrangle_config () in
  let reserves =
    match config.Check.reserves with
    | Some r -> Array.copy r
    | None -> assert false
  in
  let minimal = reserves.(0) in
  Alcotest.(check bool) "quadrangle link 0 carries protection" true
    (minimal > 0);
  (* too large: safe but not minimal — the scheme over-refuses *)
  reserves.(0) <- minimal + 3;
  let ds = Lint.run { config with Check.reserves = Some reserves } in
  Alcotest.(check bool) "not-minimal is an error" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = "prot-not-minimal" && Diagnostic.is_error d)
       ds);
  Alcotest.(check int) "exit code" 1 (Lint.exit_code ds);
  (* too small: Theorem 1 no longer bounds the damage *)
  reserves.(0) <- minimal - 1;
  let ds = Lint.run { config with Check.reserves = Some reserves } in
  Alcotest.(check bool) "unsafe is an error" true
    (List.exists
       (fun d -> d.Diagnostic.code = "prot-unsafe" && Diagnostic.is_error d)
       ds);
  (* out of range beats both *)
  reserves.(0) <- -1;
  let ds = Lint.run { config with Check.reserves = Some reserves } in
  Alcotest.(check bool) "range is an error" true
    (List.exists (fun d -> d.Diagnostic.code = "prot-range") ds)

let test_malformed_routes () =
  (* routes computed on the full quadrangle, linted against a degraded
     topology: paths over the vanished link must be flagged *)
  let full = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let routes = Route_table.build full in
  let degraded = Graph.without_links full [ (0, 1); (1, 0) ] in
  let ds =
    Route_check.run (Check.config ~routes degraded)
  in
  Alcotest.(check bool) "malformed paths reported" true
    (List.exists (fun d -> d.Diagnostic.code = "route-malformed-path") ds);
  Alcotest.(check bool) "messages reuse Path.resolve wording" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = "route-malformed-path"
         && String.length d.Diagnostic.message > 0
         &&
         let msg = d.Diagnostic.message in
         let needle = "Path.resolve: no link" in
         let rec contains i =
           if i + String.length needle > String.length msg then false
           else String.sub msg i (String.length needle) = needle || contains (i + 1)
         in
         contains 0)
       ds)

let test_load_mismatch () =
  let config = quadrangle_config () in
  let m = Graph.link_count config.Check.graph in
  (* declare stale loads: half the Equation-1 truth *)
  let declared = Array.make m 40. in
  let ds =
    Traffic_check.run { config with Check.loads = Some declared }
  in
  Alcotest.(check bool) "traffic-load-mismatch" true
    (List.exists (fun d -> d.Diagnostic.code = "traffic-load-mismatch") ds)

(* ------------------------------------------------------------------ *)
(* diagnostics: ordering, rendering, JSON round-trip *)

let test_ordering () =
  let d1 = Diagnostic.info ~code:"zz" Diagnostic.Network "late" in
  let d2 =
    Diagnostic.error ~code:"aa" (Diagnostic.Node 3) "first by severity"
  in
  let d3 = Diagnostic.warning ~code:"mm" (Diagnostic.Pair { src = 1; dst = 2 }) "middle" in
  let sorted = List.sort Diagnostic.compare [ d1; d3; d2 ] in
  Alcotest.(check (list string))
    "errors first" [ "aa"; "mm"; "zz" ]
    (List.map (fun d -> d.Diagnostic.code) sorted)

let test_json_roundtrip () =
  let samples =
    [
      Diagnostic.error ~code:"topo-capacity"
        (Diagnostic.Link { id = 3; src = 0; dst = 1 })
        "zero capacity: quoted \"reason\" with\nnewline and \\ backslash";
      Diagnostic.warning ~code:"traffic-overload"
        (Diagnostic.Pair { src = 10; dst = 11 })
        "primary demand 167 Erlangs";
      Diagnostic.info ~code:"route-primary-detour" (Diagnostic.Node 7) "";
      Diagnostic.error ~code:"prot-length" Diagnostic.Network "tab\there";
    ]
  in
  let round = Diagnostic.list_of_json (Diagnostic.json_of_list samples) in
  Alcotest.(check int) "same length" (List.length samples) (List.length round);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) (Diagnostic.to_string a) true (a = b))
    samples round;
  Alcotest.(check (list pass)) "empty list round-trips" []
    (Diagnostic.list_of_json (Diagnostic.json_of_list []));
  (* lint output of a real run round-trips too *)
  let ds = Lint.run (nsfnet_config ()) in
  let round = Diagnostic.list_of_json (Lint.to_json ds) in
  Alcotest.(check bool) "nsfnet findings round-trip" true (ds = round)

(* [arn lint -n quadrangle --reserve 0=9 --format json], verbatim as the
   one-object-per-line writer printed it: whatever the text layout, the
   JSON value and the findings it reads back to stay these *)
let lint_json_pin =
  {|[
  {"code": "prot-not-minimal", "severity": "error", "location": {"kind": "link", "id": 0, "src": 0, "dst": 1}, "message": "r = 9 is not minimal: the Theorem-1 ratio already meets 1/3 at r = 6, so the extra 3 protected states refuse alternate calls the guarantee would admit"}
]
|}

let test_lint_json_pin () =
  let config = quadrangle_config () in
  let reserves = Array.copy (Option.get config.Check.reserves) in
  reserves.(0) <- 9;
  let ds = Lint.run { config with Check.reserves = Some reserves } in
  Alcotest.(check bool) "the pinned text reads back to the findings" true
    (Diagnostic.list_of_json lint_json_pin = ds);
  Alcotest.(check bool) "the JSON value is the pinned one" true
    (Arnet_obs.Jsonu.parse (Lint.to_json ds)
    = Arnet_obs.Jsonu.parse lint_json_pin)

let test_registry () =
  Alcotest.(check (list string))
    "the built-in checks, in order"
    [ "topology"; "import"; "routes"; "protection"; "traffic" ]
    (List.map (fun c -> c.Check.name) Lint.checks);
  Alcotest.check_raises "unknown check name"
    (Invalid_argument "Lint.run: unknown check nonsense") (fun () ->
      ignore (Lint.run ~only:[ "nonsense" ] (quadrangle_config ())))

(* arn lint takes --check names from Lint.checks: an unknown one is a
   usage error (cmdliner's 124, with the list of names), not a failed
   configuration (2) *)
let test_unknown_check_through_arn () =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let status check =
    let argv =
      [| "../bin/arn.exe"; "lint"; "-n"; "quadrangle"; "--check"; check |]
    in
    let pid = Unix.create_process argv.(0) argv Unix.stdin null null in
    snd (Unix.waitpid [] pid)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      Alcotest.(check bool) "nonsense is a usage error" true
        (status "nonsense" = Unix.WEXITED 124);
      Alcotest.(check bool) "routes runs clean" true
        (status "routes" = Unix.WEXITED 0))

(* ------------------------------------------------------------------ *)
(* import checks: silent without importer metadata, escalating with it *)

let import_of ?(coords = None) ?(merged = 0) ?(loops = 0) g =
  let coords =
    match coords with
    | Some c -> c
    | None -> Array.make (Graph.node_count g) None
  in
  { Check.coords; merged_parallel = merged; dropped_self_loops = loops }

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let test_import_silent_without_metadata () =
  (* programmatically built graphs carry no import block: the check
     must contribute nothing, whatever the graph looks like *)
  let ds = Lint.run ~only:[ "import" ] (quadrangle_config ()) in
  Alcotest.(check int) "silent" 0 (List.length ds)

let test_import_counters_and_coords () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let all_placed = Array.make 4 (Some (1., 2.)) in
  let clean =
    Check.config ~import:(import_of ~coords:(Some all_placed) g) g
  in
  Alcotest.(check (list string)) "clean import" []
    (codes (Lint.run ~only:[ "import" ] clean));
  let messy =
    Check.config
      ~import:(import_of ~coords:(Some all_placed) ~merged:3 ~loops:1 g)
      g
  in
  let ds = Lint.run ~only:[ "import" ] messy in
  Alcotest.(check (list string)) "cleanup counters surface as warnings"
    [ "import-parallel-edge"; "import-self-loop" ]
    (codes ds);
  Alcotest.(check bool) "warnings only" false (Lint.has_errors ds)

let test_import_coords_escalate_with_regional () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:100 in
  let partial = [| Some (1., 2.); None; Some (3., 4.); None |] in
  let relaxed =
    Check.config ~import:(import_of ~coords:(Some partial) g) g
  in
  let ds = Lint.run ~only:[ "import" ] relaxed in
  Alcotest.(check (list string)) "one info per unplaced node"
    [ "import-no-coords"; "import-no-coords" ]
    (codes ds);
  Alcotest.(check bool) "informational without --regional" false
    (Lint.has_errors ds);
  let regional =
    Check.config ~import:(import_of ~coords:(Some partial) g) ~regional:true
      g
  in
  let ds = Lint.run ~only:[ "import" ] regional in
  Alcotest.(check bool) "regional deployments need coordinates" true
    (Lint.has_errors ds);
  Alcotest.(check int) "exit code" 1 (Lint.exit_code ds)

let test_import_isolated_node () =
  (* node 3 exists but no edge touches it *)
  let g =
    Graph.of_edges ~nodes:4 ~capacity:10 [ (0, 1); (1, 2); (2, 0) ]
  in
  let ds = Lint.run ~only:[ "import" ] (Check.config ~import:(import_of g) g) in
  Alcotest.(check bool) "isolation reported" true
    (List.mem "import-isolated-node" (codes ds));
  (match
     List.find_opt (fun d -> d.Diagnostic.code = "import-isolated-node") ds
   with
  | Some d ->
    Alcotest.(check bool) "names the node" true
      (d.Diagnostic.location = Diagnostic.Node 3)
  | None -> Alcotest.fail "missing diagnostic");
  match Check.config ~import:(import_of (Builders.ring ~nodes:3 ~capacity:1)) g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "coords length mismatch accepted"

(* ------------------------------------------------------------------ *)
(* Protection.level minimality property (Theorem 1, Section 3.1) *)

let prop_protection_minimal =
  QCheck2.Test.make ~count:300
    ~name:"Protection.level returns the minimal r meeting the 1/h target"
    QCheck2.Gen.(
      triple (float_range 0.5 250.) (int_range 1 180) (int_range 1 12))
    (fun (offered, capacity, h) ->
      let r = Protection.level ~offered ~capacity ~h in
      let target = 1. /. float_of_int h in
      let ok_range = 0 <= r && r <= capacity in
      (* at r: the Theorem-1 ratio meets the target (unless no r can,
         in which case level clamps to capacity) *)
      let ok_at_r =
        r = capacity
        || Protection.bound ~offered ~capacity ~reserve:r <= target
      in
      (* at r-1: the target is missed — r is minimal *)
      let ok_minimal =
        r = 0
        || Protection.bound ~offered ~capacity ~reserve:(r - 1) > target
      in
      ok_range && ok_at_r && ok_minimal)

let prop_lint_clean_on_computed_levels =
  (* any full mesh with Protection.levels-computed reserves lints clean
     of protection errors: the pass agrees with the constructor *)
  QCheck2.Test.make ~count:25
    ~name:"Protection.levels output always passes the protection check"
    QCheck2.Gen.(
      triple (int_range 3 6) (int_range 20 120) (float_range 1. 100.))
    (fun (nodes, capacity, demand) ->
      let g = Builders.full_mesh ~nodes ~capacity in
      let matrix = Matrix.uniform ~nodes ~demand in
      let routes = Route_table.build g in
      let reserves =
        Protection.levels routes matrix ~h:(Route_table.h routes)
      in
      let ds =
        Protection_check.run (Check.config ~routes ~matrix ~reserves g)
      in
      not (Lint.has_errors ds))

let () =
  Alcotest.run "analysis"
    [
      ( "seed configurations",
        [
          Alcotest.test_case "quadrangle lints clean" `Quick
            test_quadrangle_clean;
          Alcotest.test_case "nsfnet lints clean" `Quick test_nsfnet_clean;
        ] );
      ( "corrupted configurations",
        [
          Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
          Alcotest.test_case "asymmetric and disconnected" `Quick
            test_asymmetric_and_disconnected;
          Alcotest.test_case "corrupted reserves" `Quick
            test_corrupted_reserves;
          Alcotest.test_case "malformed routes" `Quick test_malformed_routes;
          Alcotest.test_case "stale declared loads" `Quick test_load_mismatch;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "lint json pinned" `Quick test_lint_json_pin;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "unknown check through arn" `Quick
            test_unknown_check_through_arn;
        ] );
      ( "import",
        [
          Alcotest.test_case "silent without metadata" `Quick
            test_import_silent_without_metadata;
          Alcotest.test_case "counters and coords" `Quick
            test_import_counters_and_coords;
          Alcotest.test_case "regional escalation" `Quick
            test_import_coords_escalate_with_regional;
          Alcotest.test_case "isolated node" `Quick
            test_import_isolated_node;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_protection_minimal;
          QCheck_alcotest.to_alcotest prop_lint_clean_on_computed_levels;
        ] );
    ]
