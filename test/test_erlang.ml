open Arnet_erlang

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let feq = Alcotest.(check (float 1e-9))
let feq_at tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Erlang_b *)

let test_blocking_known_values () =
  (* classic textbook values *)
  feq_at 1e-4 "B(100,100)" 0.0757 (Erlang_b.blocking ~offered:100. ~capacity:100);
  feq_at 1e-5 "B(20,30)" 0.00846 (Erlang_b.blocking ~offered:20. ~capacity:30);
  feq "B(1,1) = 1/2" 0.5 (Erlang_b.blocking ~offered:1. ~capacity:1);
  feq "B(a,0) = 1" 1. (Erlang_b.blocking ~offered:5. ~capacity:0);
  (* B(a,1) = a/(1+a) *)
  feq "B(2,1)" (2. /. 3.) (Erlang_b.blocking ~offered:2. ~capacity:1)

let test_blocking_validation () =
  check_invalid "zero load" (fun () ->
      ignore (Erlang_b.blocking ~offered:0. ~capacity:5));
  check_invalid "negative load" (fun () ->
      ignore (Erlang_b.blocking ~offered:(-1.) ~capacity:5));
  check_invalid "nan load" (fun () ->
      ignore (Erlang_b.blocking ~offered:Float.nan ~capacity:5));
  check_invalid "negative capacity" (fun () ->
      ignore (Erlang_b.blocking ~offered:1. ~capacity:(-1)))

let test_blocking_table_consistent () =
  let table = Erlang_b.blocking_table ~offered:37.5 ~capacity:60 in
  Alcotest.(check int) "length" 61 (Array.length table);
  feq "table start" 1. table.(0);
  feq "table end = blocking" (Erlang_b.blocking ~offered:37.5 ~capacity:60)
    table.(60);
  (* the defining recursion B_x = a B / (x + a B) holds at every step *)
  for x = 1 to 60 do
    let expect = 37.5 *. table.(x - 1) /. (float_of_int x +. (37.5 *. table.(x - 1))) in
    feq (Printf.sprintf "recursion at %d" x) expect table.(x)
  done

let test_log_inverse_matches_direct () =
  List.iter
    (fun (a, c) ->
      let direct = Erlang_b.blocking ~offered:a ~capacity:c in
      let ly = Erlang_b.log_inverse_table ~offered:a ~capacity:c in
      feq_at 1e-9
        (Printf.sprintf "exp(-ly) = B at a=%g c=%d" a c)
        direct
        (exp (-.ly.(c))))
    [ (1., 10); (10., 10); (50., 100); (100., 100); (167., 100); (0.5, 3) ]

let test_log_inverse_extreme_no_overflow () =
  (* y_2000 at load 1 is astronomically large; the log table must stay
     finite while the direct inverse would overflow *)
  let ly = Erlang_b.log_inverse_table ~offered:1. ~capacity:2000 in
  Alcotest.(check bool) "finite" true (Float.is_finite ly.(2000));
  Alcotest.(check bool) "monotone" true (ly.(2000) > ly.(1999))

let test_blocking_ratio () =
  feq "r=0 ratio is 1" 1.
    (Erlang_b.blocking_ratio ~offered:50. ~capacity:100 ~reserve:0);
  feq "r=C ratio is B" (Erlang_b.blocking ~offered:50. ~capacity:100)
    (Erlang_b.blocking_ratio ~offered:50. ~capacity:100 ~reserve:100);
  (* matches the definition directly *)
  let direct =
    Erlang_b.blocking ~offered:80. ~capacity:100
    /. Erlang_b.blocking ~offered:80. ~capacity:90
  in
  feq_at 1e-9 "matches definition" direct
    (Erlang_b.blocking_ratio ~offered:80. ~capacity:100 ~reserve:10);
  (* decreasing in r *)
  let prev = ref 1.1 in
  for r = 0 to 100 do
    let v = Erlang_b.blocking_ratio ~offered:70. ~capacity:100 ~reserve:r in
    Alcotest.(check bool) "nonincreasing in r" true (v <= !prev +. 1e-12);
    prev := v
  done;
  check_invalid "reserve too big" (fun () ->
      ignore (Erlang_b.blocking_ratio ~offered:1. ~capacity:5 ~reserve:6))

let test_carried_and_loss () =
  let offered = 80. and capacity = 100 in
  let b = Erlang_b.blocking ~offered ~capacity in
  feq "carried" (offered *. (1. -. b)) (Erlang_b.mean_carried ~offered ~capacity);
  feq "loss rate" (offered *. b) (Erlang_b.loss_rate ~offered ~capacity);
  Alcotest.(check bool) "carried below capacity" true
    (Erlang_b.mean_carried ~offered ~capacity < 100.)

let test_loss_rate_derivative_matches_finite_difference () =
  List.iter
    (fun (a, c) ->
      let h = 1e-5 *. a in
      let fd =
        (Erlang_b.loss_rate ~offered:(a +. h) ~capacity:c
        -. Erlang_b.loss_rate ~offered:(a -. h) ~capacity:c)
        /. (2. *. h)
      in
      let exact = Erlang_b.loss_rate_derivative ~offered:a ~capacity:c in
      feq_at 1e-4 (Printf.sprintf "derivative at a=%g c=%d" a c) fd exact)
    [ (10., 10); (50., 60); (90., 100); (120., 100); (5., 50) ]

(* ------------------------------------------------------------------ *)
(* Birth_death *)

let test_birth_death_validation () =
  check_invalid "empty" (fun () ->
      ignore (Birth_death.make ~births:[||] ~deaths:[||]));
  check_invalid "length mismatch" (fun () ->
      ignore (Birth_death.make ~births:[| 1. |] ~deaths:[| 1.; 2. |]));
  check_invalid "nonpositive rate" (fun () ->
      ignore (Birth_death.make ~births:[| 0. |] ~deaths:[| 1. |]))

let test_erlang_chain_matches_erlang_b () =
  (* with constant birth rate nu the chain is exactly M/M/C/C *)
  let nu = 42. and c = 64 in
  let chain = Birth_death.erlang ~births:(Array.make c nu) in
  feq_at 1e-12 "time congestion = Erlang B"
    (Erlang_b.blocking ~offered:nu ~capacity:c)
    (Birth_death.time_congestion chain);
  feq_at 1e-9 "mean occupancy = carried"
    (Erlang_b.mean_carried ~offered:nu ~capacity:c)
    (Birth_death.mean_occupancy chain);
  (* PASTA: with state-independent arrivals call = time congestion *)
  feq_at 1e-12 "call congestion (PASTA)"
    (Birth_death.time_congestion chain)
    (Birth_death.call_congestion chain ~arrival_at_full:nu)

let test_stationary_sums_to_one () =
  let chain =
    Birth_death.make ~births:[| 3.; 2.; 1.; 0.5 |] ~deaths:[| 1.; 2.; 3.; 4. |]
  in
  let pi = Birth_death.stationary chain in
  Alcotest.(check int) "states" 5 (Array.length pi);
  feq_at 1e-12 "sums to 1" 1. (Array.fold_left ( +. ) 0. pi);
  Array.iter (fun p -> Alcotest.(check bool) "positive" true (p > 0.)) pi

let test_stationary_closed_form () =
  (* two-state chain: pi_1/pi_0 = b/d *)
  let chain = Birth_death.make ~births:[| 3. |] ~deaths:[| 5. |] in
  let pi = Birth_death.stationary chain in
  feq_at 1e-12 "pi0" (5. /. 8.) pi.(0);
  feq_at 1e-12 "pi1" (3. /. 8.) pi.(1)

let test_passage_time_erlang_identity () =
  (* E[tau_{s->s+1}] = y_s / nu where y is the inverse blocking table *)
  let nu = 17. and c = 30 in
  let chain = Birth_death.erlang ~births:(Array.make c nu) in
  let ly = Erlang_b.log_inverse_table ~offered:nu ~capacity:c in
  for s = 0 to c - 1 do
    feq_at 1e-9
      (Printf.sprintf "passage time from %d" s)
      (exp ly.(s) /. nu)
      (Birth_death.expected_passage_time chain s)
  done

let test_accepted_until_up_recursion () =
  let chain =
    Birth_death.make ~births:[| 2.; 2.; 2. |] ~deaths:[| 1.; 2.; 3. |]
  in
  feq "X_0 = 1" 1. (Birth_death.expected_accepted_until_up chain 0);
  (* X_1 = 1 + (d_1/b_1) X_0 = 1 + 1/2 *)
  feq "X_1" 1.5 (Birth_death.expected_accepted_until_up chain 1);
  (* X_2 = 1 + (2/2) * 1.5 *)
  feq "X_2" 2.5 (Birth_death.expected_accepted_until_up chain 2);
  check_invalid "state out of range" (fun () ->
      ignore (Birth_death.expected_accepted_until_up chain 3))

let test_protected_link_structure () =
  let overflow s = float_of_int (10 - s) in
  let chain =
    Birth_death.protected_link ~primary:5. ~overflow ~capacity:10 ~reserve:3
  in
  Alcotest.(check int) "capacity" 10 (Birth_death.capacity chain);
  (* compare against an explicitly-built chain *)
  let births =
    Array.init 10 (fun s -> if s < 7 then 5. +. overflow s else 5.)
  in
  let expect = Birth_death.erlang ~births in
  feq_at 1e-12 "same congestion"
    (Birth_death.time_congestion expect)
    (Birth_death.time_congestion chain);
  check_invalid "negative overflow" (fun () ->
      ignore
        (Birth_death.protected_link ~primary:1.
           ~overflow:(fun _ -> -1.)
           ~capacity:5 ~reserve:1));
  check_invalid "reserve out of range" (fun () ->
      ignore
        (Birth_death.protected_link ~primary:1.
           ~overflow:(fun _ -> 0.)
           ~capacity:5 ~reserve:6))

(* ------------------------------------------------------------------ *)
(* Shadow_price *)

let test_shadow_price_values () =
  let nu = 20. and c = 25 in
  let t = Shadow_price.make ~offered:nu ~capacity:c in
  Alcotest.(check int) "capacity" c (Shadow_price.capacity t);
  feq_at 1e-12 "offered" nu (Shadow_price.offered t);
  (* p(0) = B(nu, C) *)
  feq_at 1e-12 "price at empty" (Erlang_b.blocking ~offered:nu ~capacity:c)
    (Shadow_price.price t 0);
  (* increasing in occupancy, below 1, infinite at full *)
  for s = 1 to c - 1 do
    Alcotest.(check bool) "increasing" true
      (Shadow_price.price t s > Shadow_price.price t (s - 1));
    Alcotest.(check bool) "below 1" true (Shadow_price.price t s < 1.)
  done;
  Alcotest.(check bool) "infinite at full" true
    (Shadow_price.price t c = infinity);
  check_invalid "negative state" (fun () -> ignore (Shadow_price.price t (-1)))

let test_shadow_path_price () =
  (* the row a path pricer indexes by occupancy is [price] at every
     state, infinity at full *)
  List.iter
    (fun (offered, capacity) ->
      let t = Shadow_price.make ~offered ~capacity in
      let row = Shadow_price.row t in
      Alcotest.(check int) "length C + 1" (capacity + 1) (Array.length row);
      for s = 0 to capacity do
        Alcotest.(check bool)
          (Printf.sprintf "row = price at %g E, C = %d, s = %d" offered
             capacity s)
          true
          (row.(s) = Shadow_price.price t s)
      done;
      Alcotest.(check bool) "infinite at full" true
        (row.(capacity) = infinity))
    [ (10., 12); (5., 12); (0.5, 1); (80., 100) ]

(* ------------------------------------------------------------------ *)
(* Reduced_load *)

let test_reduced_load_single_link () =
  let blocking =
    Reduced_load.solve ~capacities:[| 10 |]
      [ { Reduced_load.offered = 8.; links = [ 0 ] } ]
  in
  feq_at 1e-8 "single link fixed point = Erlang"
    (Erlang_b.blocking ~offered:8. ~capacity:10)
    blocking.(0)

let test_reduced_load_thinning () =
  (* a 2-link tandem: each link sees traffic thinned by the other *)
  let routes = [ { Reduced_load.offered = 9.; links = [ 0; 1 ] } ] in
  let blocking = Reduced_load.solve ~capacities:[| 10; 10 |] routes in
  let unreduced = Erlang_b.blocking ~offered:9. ~capacity:10 in
  Alcotest.(check bool) "thinned below unreduced" true
    (blocking.(0) < unreduced);
  feq_at 1e-8 "symmetric links equal" blocking.(0) blocking.(1);
  (* the fixed point equation holds *)
  let thinned = 9. *. (1. -. blocking.(1)) in
  feq_at 1e-6 "self-consistent" blocking.(0)
    (Erlang_b.blocking ~offered:thinned ~capacity:10);
  (* end-to-end route blocking *)
  feq_at 1e-9 "route blocking"
    (1. -. ((1. -. blocking.(0)) *. (1. -. blocking.(1))))
    (Reduced_load.route_blocking ~blocking (List.hd routes))

let test_reduced_load_validation () =
  check_invalid "unknown link" (fun () ->
      ignore
        (Reduced_load.solve ~capacities:[| 5 |]
           [ { Reduced_load.offered = 1.; links = [ 1 ] } ]));
  check_invalid "empty route" (fun () ->
      ignore
        (Reduced_load.solve ~capacities:[| 5 |]
           [ { Reduced_load.offered = 1.; links = [] } ]));
  check_invalid "nonpositive load" (fun () ->
      ignore
        (Reduced_load.solve ~capacities:[| 5 |]
           [ { Reduced_load.offered = 0.; links = [ 0 ] } ]))

(* ------------------------------------------------------------------ *)
(* properties *)

let load_cap_gen =
  QCheck2.Gen.(
    let* c = int_range 1 120 in
    let* a = float_range 0.5 150. in
    return (a, c))

let prop_blocking_in_unit_interval =
  QCheck2.Test.make ~count:200 ~name:"B in (0,1]" load_cap_gen (fun (a, c) ->
      let b = Erlang_b.blocking ~offered:a ~capacity:c in
      b > 0. && b <= 1.)

let prop_blocking_monotone_in_capacity =
  QCheck2.Test.make ~count:200 ~name:"B decreasing in capacity" load_cap_gen
    (fun (a, c) ->
      Erlang_b.blocking ~offered:a ~capacity:(c + 1)
      < Erlang_b.blocking ~offered:a ~capacity:c)

let prop_blocking_monotone_in_load =
  QCheck2.Test.make ~count:200 ~name:"B increasing in load" load_cap_gen
    (fun (a, c) ->
      Erlang_b.blocking ~offered:(a *. 1.1) ~capacity:c
      > Erlang_b.blocking ~offered:a ~capacity:c)

let prop_loss_rate_convex =
  (* Krishnan [23]: a * B(a, C) is convex in a *)
  QCheck2.Test.make ~count:200 ~name:"loss rate convex in load" load_cap_gen
    (fun (a, c) ->
      let f x = Erlang_b.loss_rate ~offered:x ~capacity:c in
      let mid = f a in
      let avg = (f (a *. 0.8) +. f (a *. 1.2)) /. 2. in
      mid <= avg +. 1e-9)

let prop_log_inverse_consistent =
  QCheck2.Test.make ~count:200 ~name:"log-space inverse matches direct"
    load_cap_gen (fun (a, c) ->
      let ly = Erlang_b.log_inverse_table ~offered:a ~capacity:c in
      let b = Erlang_b.blocking ~offered:a ~capacity:c in
      Float.abs (exp (-.ly.(c)) -. b) < 1e-9)

let prop_accepted_until_up_bounded =
  (* Equation 9 of the paper: X_{s,s+1} <= 1/B(lambda, s+1) for the
     chain's own rate vector — checked via the chain with the same
     births but an extra truncation *)
  QCheck2.Test.make ~count:100
    ~name:"X bounded by inverse blocking (Theorem 1 machinery)"
    QCheck2.Gen.(
      let* nu = float_range 1. 30. in
      let* c = int_range 2 40 in
      let* o = float_range 0. 20. in
      return (nu, c, o))
    (fun (nu, c, o) ->
      let overflow s = o /. (1. +. float_of_int s) in
      let chain =
        Birth_death.protected_link ~primary:nu ~overflow ~capacity:c
          ~reserve:0
      in
      (* bound from the same birth rates truncated at s+1 states *)
      List.for_all
        (fun s ->
          let x = Birth_death.expected_accepted_until_up chain s in
          let truncated =
            Birth_death.erlang
              ~births:(Array.init (s + 1) (fun j -> nu +. overflow j))
          in
          x <= (1. /. Birth_death.time_congestion truncated) +. 1e-6)
        (List.init c (fun s -> s)))

let () =
  Alcotest.run "erlang"
    [ ( "erlang-b",
        [ Alcotest.test_case "known values" `Quick test_blocking_known_values;
          Alcotest.test_case "validation" `Quick test_blocking_validation;
          Alcotest.test_case "table consistency" `Quick
            test_blocking_table_consistent;
          Alcotest.test_case "log inverse matches" `Quick
            test_log_inverse_matches_direct;
          Alcotest.test_case "log inverse extreme" `Quick
            test_log_inverse_extreme_no_overflow;
          Alcotest.test_case "blocking ratio" `Quick test_blocking_ratio;
          Alcotest.test_case "carried/loss" `Quick test_carried_and_loss;
          Alcotest.test_case "loss derivative" `Quick
            test_loss_rate_derivative_matches_finite_difference ] );
      ( "birth-death",
        [ Alcotest.test_case "validation" `Quick test_birth_death_validation;
          Alcotest.test_case "erlang chain = Erlang B" `Quick
            test_erlang_chain_matches_erlang_b;
          Alcotest.test_case "stationary sums to 1" `Quick
            test_stationary_sums_to_one;
          Alcotest.test_case "two-state closed form" `Quick
            test_stationary_closed_form;
          Alcotest.test_case "passage time identity" `Quick
            test_passage_time_erlang_identity;
          Alcotest.test_case "X recursion" `Quick
            test_accepted_until_up_recursion;
          Alcotest.test_case "protected link" `Quick
            test_protected_link_structure ] );
      ( "shadow-price",
        [ Alcotest.test_case "values" `Quick test_shadow_price_values;
          Alcotest.test_case "path price" `Quick test_shadow_path_price ] );
      ( "reduced-load",
        [ Alcotest.test_case "single link" `Quick test_reduced_load_single_link;
          Alcotest.test_case "thinning" `Quick test_reduced_load_thinning;
          Alcotest.test_case "validation" `Quick test_reduced_load_validation ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_blocking_in_unit_interval;
            prop_blocking_monotone_in_capacity;
            prop_blocking_monotone_in_load;
            prop_loss_rate_convex;
            prop_log_inverse_consistent;
            prop_accepted_until_up_bounded ] ) ]
