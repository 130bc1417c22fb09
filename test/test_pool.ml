(* Determinism of the Domain-based replication pool.

   The headline claim: [Engine.replicate ~domains:n] is bit-identical
   to the sequential run for any n — sharding (seed x policy) runs
   across domains must leak no scheduling order into the statistics.
   Plus the Pool.map contract itself (order, length, fail-fast errors)
   and the atomic odometer under concurrent runs. *)

open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_core
open Arnet_sim
module Pool = Arnet_pool

let seeds = [ 1; 2; 3; 4; 5 ]

(* structural equality over the full result: names, order, and every
   counter of every Stats.t (including the per-pair arrays) *)
let check_identical msg a b =
  Alcotest.(check (list string))
    (msg ^ ": policy names")
    (List.map fst a) (List.map fst b);
  List.iter2
    (fun (name, runs_a) (_, runs_b) ->
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "%s: %s per-seed blocking" msg name)
        (List.map Stats.blocking runs_a)
        (List.map Stats.blocking runs_b);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s stats structurally equal" msg name)
        true (runs_a = runs_b))
    a b

let standard_policies routes matrix =
  [ Scheme.single_path routes;
    Scheme.uncontrolled routes;
    Scheme.controlled_auto ~matrix routes ]

let replicate_mesh ~domains ~graph ~matrix =
  let routes = Route_table.build graph in
  Engine.replicate ~warmup:5. ~domains ~seeds ~duration:40. ~graph ~matrix
    ~policies:(standard_policies routes matrix)
    ()

let test_quadrangle_deterministic () =
  let graph = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:20. in
  check_identical "quadrangle 4 domains vs sequential"
    (replicate_mesh ~domains:4 ~graph ~matrix)
    (replicate_mesh ~domains:1 ~graph ~matrix)

let test_asymmetric_mesh_deterministic () =
  (* a sparse Waxman mesh: asymmetric routes, some long alternates *)
  let graph = Builders.waxman ~seed:11 ~nodes:8 ~capacity:20 () in
  let matrix = Matrix.uniform ~nodes:8 ~demand:6. in
  check_identical "waxman 4 domains vs sequential"
    (replicate_mesh ~domains:4 ~graph ~matrix)
    (replicate_mesh ~domains:1 ~graph ~matrix);
  check_identical "waxman 3 domains vs 4 domains"
    (replicate_mesh ~domains:3 ~graph ~matrix)
    (replicate_mesh ~domains:4 ~graph ~matrix)

let test_no_scheduling_leakage () =
  (* two parallel runs with the same seeds must agree exactly: nothing
     about domain scheduling may reach the results *)
  let graph = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:25. in
  check_identical "parallel run vs parallel rerun"
    (replicate_mesh ~domains:4 ~graph ~matrix)
    (replicate_mesh ~domains:4 ~graph ~matrix)

let test_replicate_fresh_deterministic () =
  (* stateful policies through the factory path: each (seed, policy)
     run builds its own adaptive estimators inside the worker *)
  let graph = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:25. in
  let routes = Route_table.build graph in
  let factory () =
    [ Scheme.single_path routes; Scheme.controlled_adaptive routes ]
  in
  let go domains =
    Engine.replicate_fresh ~warmup:5. ~domains ~seeds ~duration:40. ~graph
      ~matrix ~policies:factory ()
  in
  check_identical "replicate_fresh 4 domains vs sequential" (go 4) (go 1)

(* ------------------------------------------------------------------ *)
(* failure propagation *)

let bomb =
  { Engine.name = "bomb";
    decide = (fun ~occupancy:_ _ _ -> failwith "bomb");
    primary = (fun _ _ -> None) }

let test_parallel_failure_attribution () =
  let graph = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:20. in
  let routes = Route_table.build graph in
  match
    Engine.replicate ~warmup:5. ~domains:4 ~seeds ~duration:40. ~graph
      ~matrix
      ~policies:[ Scheme.single_path routes; bomb ]
      ()
  with
  | _ -> Alcotest.fail "expected Replication_failure"
  | exception Engine.Replication_failure { seed; policy; exn } ->
    Alcotest.(check string) "failing policy attributed" "bomb" policy;
    Alcotest.(check bool) "seed is one of ours" true (List.mem seed seeds);
    Alcotest.(check bool) "original exception preserved" true
      (match exn with Failure m -> m = "bomb" | _ -> false)

let test_sequential_failure_unwrapped () =
  (* domains = 1 is exactly the historical path: the raw exception *)
  let graph = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:20. in
  match
    Engine.replicate ~warmup:5. ~domains:1 ~seeds ~duration:40. ~graph
      ~matrix ~policies:[ bomb ] ()
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "raw failure" "bomb" m

let test_bad_domain_count () =
  let graph = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:20. in
  let routes = Route_table.build graph in
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Engine.replicate: domains must be >= 1") (fun () ->
      ignore
        (Engine.replicate ~warmup:5. ~domains:0 ~seeds ~duration:40. ~graph
           ~matrix
           ~policies:(standard_policies routes matrix)
           ()))

(* ------------------------------------------------------------------ *)
(* the odometer under concurrency *)

let test_odometer_concurrent_runs () =
  let graph = Builders.full_mesh ~nodes:3 ~capacity:10 in
  let matrix = Matrix.uniform ~nodes:3 ~demand:5. in
  let routes = Route_table.build graph in
  let traces =
    List.init 8 (fun i ->
        let rng = Rng.substream (Rng.create ~seed:(200 + i)) "trace" in
        Trace.generate ~rng ~duration:30. matrix)
  in
  let total =
    List.fold_left (fun acc t -> acc + Trace.call_count t) 0 traces
  in
  let before = Engine.calls_simulated () in
  ignore
    (Pool.map ~domains:4
       (fun trace ->
         Engine.run ~warmup:5. ~graph
           ~policy:(Scheme.uncontrolled routes)
           trace)
       traces);
  Alcotest.(check int) "no counts lost across domains" total
    (Engine.calls_simulated () - before);
  Alcotest.(check bool) "monotonic" true (Engine.calls_simulated () >= total)

(* ------------------------------------------------------------------ *)
(* Pool.map itself *)

let test_pool_map_basics () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 43 ] (Pool.map ~domains:8 succ [ 42 ]);
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Pool.map: domains must be >= 1") (fun () ->
      ignore (Pool.map ~domains:0 succ [ 1 ]))

let test_domains_of_string () =
  (* the shared validation behind [arn simulate --domains] and of_env:
     out-of-range counts answer one line naming the valid range *)
  Alcotest.(check (result int string))
    "4 parses" (Ok 4)
    (Pool.domains_of_string "4");
  Alcotest.(check (result int string))
    "trimmed" (Ok 2)
    (Pool.domains_of_string " 2 ");
  let expect_error input =
    match Pool.domains_of_string input with
    | Ok n -> Alcotest.failf "%S accepted as %d" input n
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S error is one line" input)
        false (String.contains msg '\n');
      Alcotest.(check bool)
        (Printf.sprintf "%S error names the valid range" input)
        true
        (let sub = "valid range" in
         let n = String.length msg and m = String.length sub in
         let rec scan i =
           i + m <= n && (String.sub msg i m = sub || scan (i + 1))
         in
         scan 0)
  in
  expect_error "0";
  expect_error "-3";
  expect_error "many";
  expect_error ""

let test_pool_of_env () =
  let var = "ARNET_POOL_TEST" in
  Unix.putenv var "6";
  Alcotest.(check int) "parses" 6 (Pool.of_env ~var ());
  Unix.putenv var " 3 ";
  Alcotest.(check int) "trims" 3 (Pool.of_env ~var ());
  Unix.putenv var "0";
  Alcotest.(check int) "non-positive -> 1" 1 (Pool.of_env ~var ());
  Unix.putenv var "many";
  Alcotest.(check int) "garbage -> 1" 1 (Pool.of_env ~var ());
  Unix.putenv var "";
  Alcotest.(check int) "empty -> 1" 1 (Pool.of_env ~var ());
  Alcotest.(check bool) "available >= 1" true (Pool.available () >= 1)

let prop_map_matches_list_map =
  QCheck.Test.make ~count:200 ~name:"Pool.map ~domains:n = List.map"
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (xs, domains) ->
      let f x = (x * x) - (3 * x) + 7 in
      Pool.map ~domains f xs = List.map f xs)

let prop_exception_index =
  QCheck.Test.make ~count:200
    ~name:"Pool.map propagates the failing job's index"
    QCheck.(triple (int_range 1 20) small_nat (int_range 1 8))
    (fun (n, k, domains) ->
      let k = k mod n in
      let jobs = List.init n Fun.id in
      match
        Pool.map ~domains
          (fun i -> if i = k then failwith "boom" else i)
          jobs
      with
      | _ -> false
      | exception Pool.Worker { index; exn } ->
        index = k && (match exn with Failure m -> m = "boom" | _ -> false)
      | exception _ -> false)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pool"
    [ ( "determinism",
        [ Alcotest.test_case "quadrangle parallel = sequential" `Slow
            test_quadrangle_deterministic;
          Alcotest.test_case "asymmetric mesh parallel = sequential" `Slow
            test_asymmetric_mesh_deterministic;
          Alcotest.test_case "no scheduling leakage" `Slow
            test_no_scheduling_leakage;
          Alcotest.test_case "replicate_fresh adaptive" `Slow
            test_replicate_fresh_deterministic ] );
      ( "failures",
        [ Alcotest.test_case "parallel attribution" `Quick
            test_parallel_failure_attribution;
          Alcotest.test_case "sequential unwrapped" `Quick
            test_sequential_failure_unwrapped;
          Alcotest.test_case "bad domain count" `Quick test_bad_domain_count ] );
      ( "odometer",
        [ Alcotest.test_case "concurrent runs" `Quick
            test_odometer_concurrent_runs ] );
      ( "pool-map",
        [ Alcotest.test_case "basics" `Quick test_pool_map_basics;
          Alcotest.test_case "domains_of_string" `Quick test_domains_of_string;
          Alcotest.test_case "of_env" `Quick test_pool_of_env;
          qcheck prop_map_matches_list_map;
          qcheck prop_exception_index ] ) ]
