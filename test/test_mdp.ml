open Arnet_mdp

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let feq_at tol = Alcotest.(check (float tol))

let single_link ~capacity ~offered =
  Loss_mdp.make ~capacities:[| capacity |] ~arrivals:[| offered |]
    ~routes:[ (0, [ 0 ]) ]

let triangle ~capacity ~load =
  Loss_mdp.make
    ~capacities:(Array.make 3 capacity)
    ~arrivals:(Array.make 3 load)
    ~routes:[ (0, [ 0 ]); (1, [ 1 ]); (2, [ 2 ]); (2, [ 0; 1 ]) ]

(* ------------------------------------------------------------------ *)

let test_single_link_erlang () =
  let m = single_link ~capacity:5 ~offered:4. in
  Alcotest.(check int) "C+1 states" 6 (Loss_mdp.state_count m);
  Alcotest.(check int) "one route" 1 (Loss_mdp.route_count m);
  let analytic = Arnet_erlang.Erlang_b.blocking ~offered:4. ~capacity:5 in
  feq_at 1e-7 "policy evaluation = Erlang B" analytic
    (Loss_mdp.policy_blocking m (Loss_mdp.single_path_policy m));
  (* on a single link no policy beats accepting everything *)
  feq_at 1e-7 "optimal = Erlang B" analytic (Loss_mdp.optimal_blocking m)

let test_two_independent_links () =
  (* two links, two streams, no interaction: blocking is the
     arrival-weighted mean of the Erlang blockings *)
  let m =
    Loss_mdp.make ~capacities:[| 3; 6 |] ~arrivals:[| 2.; 5. |]
      ~routes:[ (0, [ 0 ]); (1, [ 1 ]) ]
  in
  Alcotest.(check int) "product state space" (4 * 7) (Loss_mdp.state_count m);
  let b0 = Arnet_erlang.Erlang_b.blocking ~offered:2. ~capacity:3 in
  let b1 = Arnet_erlang.Erlang_b.blocking ~offered:5. ~capacity:6 in
  feq_at 1e-7 "weighted Erlang"
    (((2. *. b0) +. (5. *. b1)) /. 7.)
    (Loss_mdp.policy_blocking m (Loss_mdp.uncontrolled_policy m))

let test_triangle_orderings () =
  let low = triangle ~capacity:8 ~load:5. in
  let high = triangle ~capacity:8 ~load:9. in
  let eval m p = Loss_mdp.policy_blocking m p in
  let opt_low = Loss_mdp.optimal_blocking low in
  let sp_low = eval low (Loss_mdp.single_path_policy low) in
  let unc_low = eval low (Loss_mdp.uncontrolled_policy low) in
  (* at low load alternates help and the optimum beats single-path *)
  Alcotest.(check bool) "low load: uncontrolled beats single-path" true
    (unc_low < sp_low);
  Alcotest.(check bool) "optimal lower bound (low)" true
    (opt_low <= unc_low +. 1e-9 && opt_low <= sp_low +. 1e-9);
  (* at high load uncontrolled overtakes single-path — the avalanche in
     exact form — and single-path is near-optimal *)
  let opt_high = Loss_mdp.optimal_blocking high in
  let sp_high = eval high (Loss_mdp.single_path_policy high) in
  let unc_high = eval high (Loss_mdp.uncontrolled_policy high) in
  Alcotest.(check bool) "high load: uncontrolled worse than single-path" true
    (unc_high > sp_high);
  Alcotest.(check bool) "single-path near-optimal at high load" true
    (sp_high -. opt_high < 0.001)

let test_triangle_controlled_guarantee_exact () =
  (* the guarantee as an exact statement, across loads *)
  List.iter
    (fun load ->
      let m = triangle ~capacity:8 ~load in
      let r = Arnet_core.Protection.level ~offered:load ~capacity:8 ~h:2 in
      let ctl =
        Loss_mdp.policy_blocking m
          (Loss_mdp.controlled_policy m ~reserves:[| r; r; r |])
      in
      let sp = Loss_mdp.policy_blocking m (Loss_mdp.single_path_policy m) in
      let opt = Loss_mdp.optimal_blocking m in
      Alcotest.(check bool)
        (Printf.sprintf "controlled <= single-path at %g (exact)" load)
        true (ctl <= sp +. 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "controlled within 1pp of optimal at %g" load)
        true
        (ctl -. opt < 0.01))
    [ 4.; 6.; 8.; 10. ]

let test_full_reservation_equals_single_path () =
  let m = triangle ~capacity:6 ~load:5. in
  feq_at 1e-9 "r = C shuts alternates off"
    (Loss_mdp.policy_blocking m (Loss_mdp.single_path_policy m))
    (Loss_mdp.policy_blocking m
       (Loss_mdp.controlled_policy m ~reserves:[| 6; 6; 6 |]))

let test_optimal_decisions_and_threshold () =
  (* free alternate legs: the optimum always detours -> threshold 0 *)
  let free =
    Loss_mdp.make ~capacities:[| 2; 10; 10 |] ~arrivals:[| 3. |]
      ~routes:[ (0, [ 0 ]); (0, [ 1; 2 ]) ]
  in
  Alcotest.(check (option int)) "free legs accept always" (Some 0)
    (Loss_mdp.alternate_acceptance_threshold free ~od:0);
  (* decisions cover every (state, stream) pair and chosen routes are
     feasible *)
  let decisions = Loss_mdp.optimal_decisions free in
  Alcotest.(check int) "one record per state-stream pair"
    (Loss_mdp.state_count free)
    (List.length decisions);
  (* loaded network: the optimum stops being a pure occupancy threshold
     (composition matters), which is the expected network effect *)
  let loaded =
    Loss_mdp.make ~capacities:[| 2; 6; 6 |] ~arrivals:[| 3.; 5.; 5. |]
      ~routes:[ (0, [ 0 ]); (0, [ 1; 2 ]); (1, [ 1 ]); (2, [ 2 ]) ]
  in
  Alcotest.(check (option int)) "loaded legs: not occupancy-threshold" None
    (Loss_mdp.alternate_acceptance_threshold loaded ~od:0);
  check_invalid "needs exactly two routes" (fun () ->
      ignore (Loss_mdp.alternate_acceptance_threshold loaded ~od:1))

let test_validation () =
  check_invalid "bad od" (fun () ->
      ignore
        (Loss_mdp.make ~capacities:[| 2 |] ~arrivals:[| 1. |]
           ~routes:[ (1, [ 0 ]) ]));
  check_invalid "empty route" (fun () ->
      ignore
        (Loss_mdp.make ~capacities:[| 2 |] ~arrivals:[| 1. |]
           ~routes:[ (0, []) ]));
  check_invalid "bad link" (fun () ->
      ignore
        (Loss_mdp.make ~capacities:[| 2 |] ~arrivals:[| 1. |]
           ~routes:[ (0, [ 1 ]) ]));
  check_invalid "stream without routes" (fun () ->
      ignore
        (Loss_mdp.make ~capacities:[| 2 |] ~arrivals:[| 1.; 1. |]
           ~routes:[ (0, [ 0 ]) ]));
  check_invalid "nonpositive arrival" (fun () ->
      ignore
        (Loss_mdp.make ~capacities:[| 2 |] ~arrivals:[| 0. |]
           ~routes:[ (0, [ 0 ]) ]));
  let m = single_link ~capacity:2 ~offered:1. in
  check_invalid "policy picks infeasible route" (fun () ->
      ignore (Loss_mdp.policy_blocking m (fun ~occupancy:_ ~od:_ -> Some 0)));
  check_invalid "reserves mismatch" (fun () ->
      ignore
        (Loss_mdp.policy_blocking m
           (Loss_mdp.controlled_policy m ~reserves:[| 1; 1 |])))

let test_simulation_cross_check () =
  (* the exact controlled evaluation must sit inside the simulator's
     confidence interval on the same model *)
  let rows =
    Arnet_experiments.Optimality_exp.run ~loads:[ 7. ]
      ~config:
        { Arnet_experiments.Config.seeds = [ 1; 2; 3; 4; 5 ];
          duration = 110.;
          warmup = 10. }
      ()
  in
  match rows with
  | [ r ] ->
    Alcotest.(check bool)
      (Printf.sprintf "sim %.4f within 1pp of exact %.4f"
         r.Arnet_experiments.Optimality_exp.controlled_simulated
         r.Arnet_experiments.Optimality_exp.controlled)
      true
      (Float.abs
         (r.Arnet_experiments.Optimality_exp.controlled_simulated
         -. r.Arnet_experiments.Optimality_exp.controlled)
      < 0.01)
  | _ -> Alcotest.fail "one row expected"

let () =
  Alcotest.run "mdp"
    [ ( "loss-mdp",
        [ Alcotest.test_case "single link = Erlang" `Quick
            test_single_link_erlang;
          Alcotest.test_case "independent links" `Quick
            test_two_independent_links;
          Alcotest.test_case "triangle orderings" `Quick
            test_triangle_orderings;
          Alcotest.test_case "controlled guarantee, exact" `Slow
            test_triangle_controlled_guarantee_exact;
          Alcotest.test_case "full reservation = single-path" `Quick
            test_full_reservation_equals_single_path;
          Alcotest.test_case "optimal decisions / threshold" `Quick
            test_optimal_decisions_and_threshold;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "simulation cross-check" `Slow
            test_simulation_cross_check ] ) ]
