open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let feq_at tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Protection *)

let test_protection_table1 () =
  (* Table 1 regression: from the paper's (rounded) loads, H=11 levels
     reproduce exactly and H=6 levels within 2 (rounding of Lambda). *)
  List.iter
    (fun ((src, dst), (r6, r11)) ->
      let offered = Nsfnet.load_of ~src ~dst in
      let got6 = Protection.level ~offered ~capacity:100 ~h:6 in
      let got11 = Protection.level ~offered ~capacity:100 ~h:11 in
      Alcotest.(check bool)
        (Printf.sprintf "H=6 %d->%d (paper %d, got %d)" src dst r6 got6)
        true
        (abs (got6 - r6) <= 2);
      Alcotest.(check bool)
        (Printf.sprintf "H=11 %d->%d (paper %d, got %d)" src dst r11 got11)
        true
        (abs (got11 - r11) <= 2))
    Nsfnet.table1_protection;
  (* and the exact-match rate is high *)
  let exact6 =
    List.length
      (List.filter
         (fun ((src, dst), (r6, _)) ->
           Protection.level ~offered:(Nsfnet.load_of ~src ~dst) ~capacity:100
             ~h:6
           = r6)
         Nsfnet.table1_protection)
  in
  Alcotest.(check bool) "at least 26/30 exact at H=6" true (exact6 >= 26)

let test_protection_properties_small () =
  (* h = 1: an alternate call is as good as a primary, no protection *)
  Alcotest.(check int) "h=1 gives r=0" 0
    (Protection.level ~offered:50. ~capacity:100 ~h:1);
  (* huge overload: every state protected *)
  Alcotest.(check int) "overload clamps to C" 100
    (Protection.level ~offered:500. ~capacity:100 ~h:6);
  (* the chosen level meets the target, the one below does not *)
  let offered = 74. and capacity = 100 and h = 6 in
  let r = Protection.level ~offered ~capacity ~h in
  Alcotest.(check bool) "meets target" true
    (Protection.bound ~offered ~capacity ~reserve:r <= 1. /. 6.);
  Alcotest.(check bool) "minimal" true
    (Protection.bound ~offered ~capacity ~reserve:(r - 1) > 1. /. 6.);
  check_invalid "h < 1" (fun () ->
      ignore (Protection.level ~offered:1. ~capacity:10 ~h:0));
  check_invalid "bad capacity" (fun () ->
      ignore (Protection.level ~offered:1. ~capacity:0 ~h:2))

let test_protection_levels_of_loads () =
  let levels =
    Protection.levels_of_loads ~capacities:[| 100; 100; 10 |]
      ~loads:[| 74.; 0.; 8. |] ~h:6
  in
  Alcotest.(check int) "loaded link" 7 levels.(0);
  Alcotest.(check int) "idle link unprotected" 0 levels.(1);
  Alcotest.(check bool) "small link protected" true (levels.(2) > 0);
  check_invalid "length mismatch" (fun () ->
      ignore (Protection.levels_of_loads ~capacities:[| 1 |] ~loads:[||] ~h:2))

let test_protection_levels_from_matrix () =
  let g = Nsfnet.graph () in
  let routes = Route_table.build g in
  let _, fit = Fit.nsfnet_nominal () in
  let levels = Protection.levels routes fit.Fit.matrix ~h:11 in
  Alcotest.(check int) "one level per link" 30 (Array.length levels);
  (* spot-check against Table 1 H=11 column *)
  let id = (Graph.find_link_exn g ~src:6 ~dst:5).Link.id in
  Alcotest.(check int) "6->5 level" 26 levels.(id)

let test_protection_sweep_monotone () =
  let sweep =
    Protection.sweep ~capacity:100 ~h:6
      ~loads:(List.init 100 (fun i -> float_of_int (i + 1)))
  in
  let rec check_monotone = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      Alcotest.(check bool) "r nondecreasing in load" true (b >= a);
      check_monotone rest
    | _ -> ()
  in
  check_monotone sweep

let test_path_guarantee () =
  let g = Nsfnet.graph () in
  let routes = Route_table.build ~h:6 g in
  let _, fit = Fit.nsfnet_nominal () in
  (* recompute Equation-1 loads under the H=6 table's primaries *)
  let loads = Loads.primary_link_loads routes fit.Fit.matrix in
  let capacities =
    Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g)
  in
  let reserves = Protection.levels_of_loads ~capacities ~loads ~h:6 in
  (* the scheme's invariant: every alternate path the scheme can ever
     admit displaces at most one primary call in expectation.  Paths
     through a fully-protected link (r = C, the overloaded links where
     no level meets 1/H) are never admitted, so they are exempt. *)
  let admissible p =
    List.for_all (fun k -> reserves.(k) < capacities.(k)) (Path.link_ids p)
  in
  let checked = ref 0 in
  for src = 0 to 11 do
    for dst = 0 to 11 do
      if src <> dst then
        List.iter
          (fun p ->
            if admissible p then begin
              incr checked;
              let guarantee =
                Protection.path_guarantee ~capacities ~loads ~reserves
                  ~link_ids:(Path.link_ids p)
              in
              Alcotest.(check bool)
                (Printf.sprintf "guarantee on %s" (Path.to_string p))
                true
                (guarantee <= 1. +. 1e-9)
            end)
          (Route_table.alternates routes ~src ~dst)
    done
  done;
  Alcotest.(check bool) "checked a substantial path set" true (!checked > 100)

(* ------------------------------------------------------------------ *)
(* Admission *)

let test_admission_rules () =
  let a = Admission.make ~capacities:[| 10; 10 |] ~reserves:[| 0; 3 |] in
  let occ = [| 9; 6 |] in
  Alcotest.(check bool) "primary below capacity" true
    (Admission.link_admits_primary a ~occupancy:occ 0);
  Alcotest.(check bool) "alternate same as primary at r=0" true
    (Admission.link_admits_alternate a ~occupancy:occ 0);
  (* link 1: threshold 10-3=7; occupancy 6 admits, 7 refuses *)
  Alcotest.(check bool) "alternate below threshold" true
    (Admission.link_admits_alternate a ~occupancy:occ 1);
  Alcotest.(check bool) "alternate at threshold refused" false
    (Admission.link_admits_alternate a ~occupancy:[| 0; 7 |] 1);
  Alcotest.(check bool) "primary still fine at threshold" true
    (Admission.link_admits_primary a ~occupancy:[| 0; 7 |] 1);
  Alcotest.(check bool) "primary refused at capacity" false
    (Admission.link_admits_primary a ~occupancy:[| 10; 0 |] 0)

let test_admission_paths () =
  let g = Builders.line ~nodes:3 ~capacity:5 in
  let a =
    Admission.make
      ~capacities:(Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g))
      ~reserves:(Array.make (Graph.link_count g) 2)
  in
  let p = Path.make g [ 0; 1; 2 ] in
  let occ = Array.make (Graph.link_count g) 0 in
  Alcotest.(check bool) "empty admits both" true
    (Admission.path_admits_primary a ~occupancy:occ p
    && Admission.path_admits_alternate a ~occupancy:occ p);
  (* saturate one link for alternates but not primaries *)
  let ids = Path.link_ids p in
  occ.(List.hd ids) <- 3;
  Alcotest.(check bool) "alternate refused" false
    (Admission.path_admits_alternate a ~occupancy:occ p);
  Alcotest.(check bool) "primary admitted" true
    (Admission.path_admits_primary a ~occupancy:occ p)

let test_admission_validation () =
  check_invalid "reserve above capacity" (fun () ->
      ignore (Admission.make ~capacities:[| 5 |] ~reserves:[| 6 |]));
  check_invalid "negative reserve" (fun () ->
      ignore (Admission.make ~capacities:[| 5 |] ~reserves:[| -1 |]));
  check_invalid "length mismatch" (fun () ->
      ignore (Admission.make ~capacities:[| 5 |] ~reserves:[| 1; 2 |]));
  let u = Admission.unprotected ~capacities:[| 3; 4 |] in
  Alcotest.(check (list int)) "unprotected reserves" [ 0; 0 ]
    (Array.to_list (Admission.reserves u));
  Alcotest.(check (list int)) "capacities copied" [ 3; 4 ]
    (Array.to_list (Admission.capacities u))

(* ------------------------------------------------------------------ *)
(* Controller *)

let mk_call ?(u = 0.) time src dst holding = { Trace.time; src; dst; holding; u }

(* tier 1: the primary a compiled policy reports for a call *)
let test_controller_primary_for () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:4 in
  let routes = Route_table.build g in
  let trace =
    Trace.of_calls ~matrix:(Matrix.uniform ~nodes:3 ~demand:1.) ~duration:1.
      [ mk_call 0. 0 1 1. ]
  in
  let admission =
    Admission.unprotected
      ~capacities:
        (Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g))
  in
  let primary_for choice =
    let policy =
      Controller.compile ~choice ~name:"two-tier" ~routes ~admission
        ~allow_alternates:true ()
    in
    policy.Engine.primary trace 0
  in
  (match primary_for Controller.Table with
  | Some p -> Alcotest.(check (list int)) "table primary" [ 0; 1 ] (Path.nodes p)
  | None -> Alcotest.fail "primary expected");
  let sampled =
    Controller.Sampled
      (fun ~src ~dst ~u:_ -> Some (Path.make g [ src; 2; dst ]))
  in
  (match primary_for sampled with
  | Some p -> Alcotest.(check (list int)) "sampled primary" [ 0; 2; 1 ] (Path.nodes p)
  | None -> Alcotest.fail "primary expected");
  let never = Controller.Sampled (fun ~src:_ ~dst:_ ~u:_ -> None) in
  Alcotest.(check bool) "unroutable" true (primary_for never = None)

(* tier 2: [route] over the pair's plan *)
let test_controller_decide () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:2 in
  let routes = Route_table.build g in
  let capacities =
    Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g)
  in
  let admission = Admission.unprotected ~capacities in
  let occ = Array.make (Graph.link_count g) 0 in
  (* pair 0 -> 1, row-major at src * n + dst *)
  let plan = (Controller.plans routes).((0 * 3) + 1) in
  let decide occ allow =
    Controller.route admission ~allow_alternates:allow ~occupancy:occ
      ~bandwidth:1 plan
  in
  (match decide occ true with
  | Engine.Routed p -> Alcotest.(check int) "primary when free" 1 (Path.hops p)
  | Engine.Lost -> Alcotest.fail "should route");
  (* saturate the direct link *)
  let direct = (Graph.find_link_exn g ~src:0 ~dst:1).Link.id in
  occ.(direct) <- 2;
  (match decide occ true with
  | Engine.Routed p ->
    Alcotest.(check (list int)) "shortest alternate" [ 0; 2; 1 ] (Path.nodes p)
  | Engine.Lost -> Alcotest.fail "alternate expected");
  (match decide occ false with
  | Engine.Lost -> ()
  | Engine.Routed _ -> Alcotest.fail "single-path must lose");
  (* saturate everything out of node 0 *)
  let out02 = (Graph.find_link_exn g ~src:0 ~dst:2).Link.id in
  occ.(out02) <- 2;
  match decide occ true with
  | Engine.Lost -> ()
  | Engine.Routed _ -> Alcotest.fail "no capacity left"

(* ------------------------------------------------------------------ *)
(* Scheme *)

let run_scheme g matrix policy calls =
  let trace = Trace.of_calls ~matrix ~duration:100. calls in
  Engine.run ~warmup:0. ~graph:g ~policy trace

let test_scheme_single_path () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:1 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:3 ~demand:1. in
  let stats =
    run_scheme g matrix
      (Scheme.single_path routes)
      [ mk_call 1. 0 1 10.; mk_call 2. 0 1 1. ]
  in
  Alcotest.(check int) "second call lost" 1 stats.Stats.blocked;
  Alcotest.(check int) "no alternates ever" 0 stats.Stats.carried_alternate

let test_scheme_uncontrolled_vs_controlled () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:2 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:3 ~demand:1. in
  let calls = [ mk_call 1. 0 1 10.; mk_call 2. 0 1 10.; mk_call 3. 0 1 10. ] in
  (* uncontrolled: third call detours via 2 *)
  let unc = run_scheme g matrix (Scheme.uncontrolled routes) calls in
  Alcotest.(check int) "uncontrolled carries all" 0 unc.Stats.blocked;
  Alcotest.(check int) "one alternate" 1 unc.Stats.carried_alternate;
  (* full protection (r = C on every link): alternates never admitted *)
  let reserves = Array.make (Graph.link_count g) 2 in
  let ctl = run_scheme g matrix (Scheme.controlled ~reserves routes) calls in
  Alcotest.(check int) "fully protected blocks the third" 1 ctl.Stats.blocked;
  Alcotest.(check int) "no alternates" 0 ctl.Stats.carried_alternate

let test_scheme_controlled_threshold () =
  (* C=2, r=1: a link takes an alternate call only when empty *)
  let g = Builders.full_mesh ~nodes:3 ~capacity:2 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:3 ~demand:1. in
  let reserves = Array.make (Graph.link_count g) 1 in
  let policy = Scheme.controlled ~reserves routes in
  (* occupy 0->2 with a primary, then saturate 0->1: the alternate
     0->2->1 must be refused because 0->2 is at occupancy 1 = C - r *)
  let calls =
    [ mk_call 1. 0 2 10.;  (* primary on 0->2 *)
      mk_call 2. 0 1 10.;
      mk_call 3. 0 1 10.;
      mk_call 4. 0 1 1.  (* primary full; alternate via 2 refused *) ]
  in
  let stats = run_scheme g matrix policy calls in
  Alcotest.(check int) "alternate refused by protection" 1 stats.Stats.blocked;
  (* same story without the first call: alternate admitted *)
  let calls' = [ mk_call 2. 0 1 10.; mk_call 3. 0 1 10.; mk_call 4. 0 1 1. ] in
  let stats' = run_scheme g matrix policy calls' in
  Alcotest.(check int) "alternate admitted when links empty" 0
    stats'.Stats.blocked

let test_scheme_controlled_auto_matches_manual () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand:25. in
  let auto = Scheme.controlled_auto ~matrix routes in
  let manual =
    Scheme.controlled
      ~reserves:(Protection.levels routes matrix ~h:(Route_table.h routes))
      routes
  in
  let rng = Rng.create ~seed:33 in
  let trace = Trace.generate ~rng ~duration:50. matrix in
  let s1 = Engine.run ~warmup:5. ~graph:g ~policy:auto trace in
  let s2 = Engine.run ~warmup:5. ~graph:g ~policy:manual trace in
  Alcotest.(check int) "identical decisions" s1.Stats.blocked s2.Stats.blocked

let test_scheme_ott_krishnan_basic () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:5 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:3 ~demand:3. in
  let policy = Scheme.ott_krishnan ~matrix routes in
  (* an empty network must route the (cheap) primary *)
  let stats = run_scheme g matrix policy [ mk_call 1. 0 1 1. ] in
  Alcotest.(check int) "carried" 0 stats.Stats.blocked;
  Alcotest.(check int) "on primary" 1 stats.Stats.carried_primary;
  (* ties: with primary load on 0 -> 1 alone, every other link is free
     to use, so each detour prices 0 below the loaded primary, and the
     first of the equal-priced paths in length order must win *)
  let g = Builders.full_mesh ~nodes:4 ~capacity:5 in
  let routes = Route_table.build g in
  let matrix =
    Matrix.make ~nodes:4 (fun i j -> if i = 0 && j = 1 then 3. else 0.)
  in
  let policy = Scheme.ott_krishnan ~matrix routes in
  let trace = Trace.of_calls ~matrix ~duration:10. [ mk_call 1. 0 1 1. ] in
  let occupancy = Array.make (Graph.link_count g) 0 in
  match policy.Engine.decide ~occupancy trace 0 with
  | Engine.Routed p ->
    Alcotest.(check (list int)) "first zero-priced path wins" [ 0; 2; 1 ]
      (Path.nodes p)
  | Engine.Lost -> Alcotest.fail "a zero-priced path was refused"

let test_scheme_ott_krishnan_blocks_on_price () =
  (* tiny capacities and heavy load make shadow prices ~1 per link; a
     2-hop alternate then costs more than the call's revenue, so O-K
     blocks even though capacity exists *)
  let g = Builders.full_mesh ~nodes:3 ~capacity:1 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:3 ~demand:50. in
  let policy = Scheme.ott_krishnan ~matrix routes in
  let calls = [ mk_call 1. 0 1 10.; mk_call 2. 0 1 1. ] in
  let stats = run_scheme g matrix policy calls in
  (* direct link full; alternate 0->2->1 costs ~ 2 * B(50,1)/B(50,0) ~ 2 *)
  Alcotest.(check int) "blocked by price despite capacity" 1 stats.Stats.blocked;
  (* with a generous revenue the same call is admitted *)
  let generous = Scheme.ott_krishnan ~revenue:10. ~matrix routes in
  let stats' = run_scheme g matrix generous calls in
  Alcotest.(check int) "admitted at high revenue" 0 stats'.Stats.blocked

let test_scheme_ott_krishnan_validation () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:10 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand:8. in
  check_invalid "zero revenue" (fun () ->
      ignore (Scheme.ott_krishnan ~revenue:0. ~matrix routes));
  (* NaN fails every comparison: a [<= 0.] test would let it through,
     and every call would be blocked *)
  check_invalid "NaN revenue" (fun () ->
      ignore (Scheme.ott_krishnan ~revenue:nan ~matrix routes));
  (* an infinite revenue admits whenever some path has a free circuit *)
  let trace = Trace.generate ~rng:(Rng.create ~seed:3) ~duration:30. matrix in
  let s =
    Engine.run ~warmup:5. ~graph:g
      ~policy:(Scheme.ott_krishnan ~revenue:infinity ~matrix routes)
      trace
  in
  Alcotest.(check bool) "infinite revenue carries calls" true
    (s.Stats.offered > 0 && s.Stats.blocked < s.Stats.offered)

let test_scheme_ott_krishnan_reduced () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:5 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:3 ~demand:4. in
  let policy = Scheme.ott_krishnan ~reduced_load:true ~matrix routes in
  Alcotest.(check string) "name marks variant" "ott-krishnan-reduced"
    (Scheme.name_of policy);
  let stats = run_scheme g matrix policy [ mk_call 1. 0 1 1. ] in
  Alcotest.(check int) "works" 0 stats.Stats.blocked

let test_scheme_length_aware () =
  (* K4, C=4: thresholds are laxer for 2-hop than for 3-hop alternates *)
  let g = Builders.full_mesh ~nodes:4 ~capacity:4 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand:3.5 in
  let policy = Scheme.controlled_length_aware ~matrix routes in
  Alcotest.(check string) "name" "controlled-length-aware"
    (Scheme.name_of policy);
  (* empty network: primary rules unchanged *)
  let stats = run_scheme g matrix policy [ mk_call 1. 0 1 1. ] in
  Alcotest.(check int) "primary carried" 1 stats.Stats.carried_primary;
  (* and the per-length thresholds are ordered correctly *)
  let r2 = Protection.level ~offered:3.5 ~capacity:4 ~h:2 in
  let r3 = Protection.level ~offered:3.5 ~capacity:4 ~h:3 in
  Alcotest.(check bool) "longer paths face tighter thresholds" true (r3 >= r2);
  (* guarantee argument: every l-hop alternate's summed bound <= 1 *)
  let loads = Loads.primary_link_loads routes matrix in
  let capacities =
    Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g)
  in
  for src = 0 to 3 do
    for dst = 0 to 3 do
      if src <> dst then
        List.iter
          (fun p ->
            let l = Path.hops p in
            let reserves =
              Array.mapi
                (fun k c ->
                  if loads.(k) <= 0. then 0
                  else Protection.level ~offered:loads.(k) ~capacity:c ~h:l)
                capacities
            in
            Alcotest.(check bool)
              (Printf.sprintf "guarantee on %s" (Path.to_string p))
              true
              (Protection.path_guarantee ~capacities ~loads ~reserves
                 ~link_ids:(Path.link_ids p)
              <= 1. +. 1e-9))
          (Route_table.alternates routes ~src ~dst)
    done
  done

(* degenerate topologies, the simulate stage: every scheme replays a
   trace over each fixture, conserving calls and raising nothing.  On
   the zero-capacity link 0 -> 1 primary load is positive, which once
   reached Protection.level and Shadow_price.make with capacity 0. *)
let test_scheme_degenerate_topologies () =
  let link id src dst capacity = Link.make ~id ~src ~dst ~capacity in
  let fixtures =
    [ ("single edge", Graph.create ~nodes:2 [ link 0 0 1 2 ]);
      ("bidirectional edge", Graph.of_edges ~nodes:2 ~capacity:2 [ (0, 1) ]);
      ("double hop", Graph.create ~nodes:3 [ link 0 0 1 2; link 1 1 2 2 ]);
      ("isolated node", Graph.of_edges ~nodes:3 ~capacity:2 [ (0, 1) ]);
      ("no links", Graph.create ~nodes:3 []);
      ( "zero-capacity link",
        Graph.create ~nodes:3
          [ link 0 0 1 0; link 1 1 0 2; link 2 0 2 2; link 3 2 0 2;
            link 4 1 2 2; link 5 2 1 2 ] ) ]
  in
  List.iter
    (fun (name, g) ->
      let routes = Route_table.build g in
      let matrix = Matrix.uniform ~nodes:(Graph.node_count g) ~demand:1.5 in
      let trace =
        Trace.generate ~rng:(Rng.create ~seed:4) ~duration:40. matrix
      in
      List.iter
        (fun policy ->
          let s = Engine.run ~warmup:5. ~graph:g ~policy trace in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: calls conserved" name
               (Scheme.name_of policy))
            true
            (s.Stats.offered > 0
            && s.Stats.offered
               = s.Stats.blocked + s.Stats.carried_primary
                 + s.Stats.carried_alternate))
        [ Scheme.single_path routes;
          Scheme.uncontrolled routes;
          Scheme.controlled_auto ~matrix routes;
          Scheme.ott_krishnan ~matrix routes;
          Scheme.least_busy routes ])
    fixtures

let test_scheme_least_busy () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:4 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand:1. in
  let policy = Scheme.least_busy routes in
  (* fill 0->1; make detour via 2 busier than via 3 *)
  let calls =
    [ mk_call 1. 0 1 20.; mk_call 1.5 0 1 20.; mk_call 2. 0 1 20.;
      mk_call 2.5 0 1 20.;  (* 0->1 now full *)
      mk_call 3. 0 2 20.; mk_call 3.5 0 2 20.;  (* 0->2 at 2/4 *)
      mk_call 4. 0 1 1.  (* should detour via 3, the less busy *) ]
  in
  let trace = Trace.of_calls ~matrix ~duration:100. calls in
  (* instrument by wrapping decide *)
  let chosen = ref [] in
  let spy =
    { policy with
      Engine.decide =
        (fun ~occupancy trace i ->
          let d = policy.Engine.decide ~occupancy trace i in
          (match d with
          | Engine.Routed p -> chosen := Path.nodes p :: !chosen
          | Engine.Lost -> ());
          d) }
  in
  let _ = Engine.run ~warmup:0. ~graph:g ~policy:spy trace in
  match !chosen with
  | last :: _ ->
    Alcotest.(check (list int)) "least busy detour via 3" [ 0; 3; 1 ] last
  | [] -> Alcotest.fail "no decisions recorded"

(* the custom-decide policies (Ott-Krishnan, least-busy,
   length-aware), frozen per seed: offered, blocked, carried primary,
   carried alternate, alternate hops and a checksum of [blocked_od].
   NSFNet at nominal and 1.3x load, plus one table whose custom primary
   is longer than H, so Ott-Krishnan's candidate list has the primary
   merged in last *)
let custom_decide_policies ~matrix routes =
  let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
  [ Scheme.ott_krishnan ~matrix routes;
    Scheme.ott_krishnan ~reduced_load:true ~matrix routes;
    { (Scheme.least_busy routes) with Engine.name = "least-busy-free" };
    { (Scheme.least_busy ~reserves routes) with
      Engine.name = "least-busy-protected" };
    Scheme.controlled_length_aware ~matrix routes ]

let fingerprint (s : Stats.t) =
  let od, _ =
    Array.fold_left
      (fun (acc, i) b -> (acc + ((i + 1) * b), i + 1))
      (0, 0) s.Stats.blocked_od
  in
  [ s.Stats.offered;
    s.Stats.blocked;
    s.Stats.carried_primary;
    s.Stats.carried_alternate;
    s.Stats.alternate_hops;
    od ]

let custom_decide_runs () =
  let routes, nominal = Arnet_experiments.Internet.nominal () in
  let g = Route_table.graph routes in
  (* a 3-hop primary where the pair has one, beyond H = 2 *)
  let custom =
    Route_table.build ~h:2
      ~primary:(fun ~src ~dst ->
        match
          List.find_opt
            (fun p -> Path.hops p = 3)
            (Enumerate.simple_paths ~max_hops:3 g ~src ~dst)
        with
        | Some p -> Some p
        | None -> Bfs.min_hop_path g ~src ~dst)
      g
  in
  let runs label routes scale =
    let matrix = Matrix.scale nominal scale in
    let policies = custom_decide_policies ~matrix routes in
    List.concat_map
      (fun seed ->
        let trace =
          Trace.generate
            ~rng:(Rng.substream (Rng.create ~seed) "trace")
            ~duration:12. matrix
        in
        List.map
          (fun policy ->
            ( Printf.sprintf "%s %.1f seed %d %s" label scale seed
                (Scheme.name_of policy),
              fingerprint (Engine.run ~warmup:4. ~graph:g ~policy trace) ))
          policies)
      [ 1; 2 ]
  in
  runs "nsfnet" routes 1.0 @ runs "nsfnet" routes 1.3 @ runs "custom" custom 1.0

let test_custom_decide_golden () =
  let frozen =
    [ ("nsfnet 1.0 seed 1 ott-krishnan",
        [ 7721; 1014; 3910; 2797; 11716; 81661 ]);
      ("nsfnet 1.0 seed 1 ott-krishnan-reduced",
        [ 7721; 805; 3992; 2924; 12759; 62810 ]);
      ("nsfnet 1.0 seed 1 least-busy-free",
        [ 7721; 882; 5863; 976; 4376; 74815 ]);
      ("nsfnet 1.0 seed 1 least-busy-protected",
        [ 7721; 974; 6662; 85; 341; 89167 ]);
      ("nsfnet 1.0 seed 1 controlled-length-aware",
        [ 7721; 894; 6640; 187; 812; 81571 ]);
      ("nsfnet 1.0 seed 2 ott-krishnan",
        [ 7713; 1006; 3861; 2846; 12085; 80838 ]);
      ("nsfnet 1.0 seed 2 ott-krishnan-reduced",
        [ 7713; 855; 3834; 3024; 13350; 68319 ]);
      ("nsfnet 1.0 seed 2 least-busy-free",
        [ 7713; 825; 5918; 970; 4417; 71773 ]);
      ("nsfnet 1.0 seed 2 least-busy-protected",
        [ 7713; 962; 6639; 112; 503; 91509 ]);
      ("nsfnet 1.0 seed 2 controlled-length-aware",
        [ 7713; 894; 6628; 191; 855; 86117 ]);
      ("nsfnet 1.3 seed 1 ott-krishnan",
        [ 10030; 2862; 4780; 2388; 8777; 248442 ]);
      ("nsfnet 1.3 seed 1 ott-krishnan-reduced",
        [ 10030; 2198; 5147; 2685; 10389; 188337 ]);
      ("nsfnet 1.3 seed 1 least-busy-free",
        [ 10030; 2318; 6147; 1565; 6577; 204393 ]);
      ("nsfnet 1.3 seed 1 least-busy-protected",
        [ 10030; 2207; 7771; 52; 104; 199840 ]);
      ("nsfnet 1.3 seed 1 controlled-length-aware",
        [ 10030; 2151; 7771; 108; 278; 194901 ]);
      ("nsfnet 1.3 seed 2 ott-krishnan",
        [ 10104; 2880; 4905; 2319; 8362; 249380 ]);
      ("nsfnet 1.3 seed 2 ott-krishnan-reduced",
        [ 10104; 2135; 5270; 2699; 10453; 180607 ]);
      ("nsfnet 1.3 seed 2 least-busy-free",
        [ 10104; 2214; 6320; 1570; 6631; 190662 ]);
      ("nsfnet 1.3 seed 2 least-busy-protected",
        [ 10104; 2173; 7860; 71; 144; 195620 ]);
      ("nsfnet 1.3 seed 2 controlled-length-aware",
        [ 10104; 2115; 7859; 130; 335; 190540 ]);
      ("custom 1.0 seed 1 ott-krishnan",
        [ 7721; 1325; 4525; 1871; 2740; 122926 ]);
      ("custom 1.0 seed 1 ott-krishnan-reduced",
        [ 7721; 1086; 4679; 1956; 3002; 99807 ]);
      ("custom 1.0 seed 1 least-busy-free",
        [ 7721; 1100; 6295; 326; 447; 102650 ]);
      ("custom 1.0 seed 1 least-busy-protected",
        [ 7721; 1202; 6316; 203; 293; 114364 ]);
      ("custom 1.0 seed 1 controlled-length-aware",
        [ 7721; 1107; 6299; 315; 416; 103448 ]);
      ("custom 1.0 seed 2 ott-krishnan",
        [ 7713; 1313; 4532; 1868; 2774; 122911 ]);
      ("custom 1.0 seed 2 ott-krishnan-reduced",
        [ 7713; 1077; 4690; 1946; 3018; 100742 ]);
      ("custom 1.0 seed 2 least-busy-free",
        [ 7713; 1105; 6355; 253; 350; 104935 ]);
      ("custom 1.0 seed 2 least-busy-protected",
        [ 7713; 1151; 6391; 171; 251; 109831 ]);
      ("custom 1.0 seed 2 controlled-length-aware",
        [ 7713; 1110; 6376; 227; 312; 105563 ]) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "offered, blocked, primary, alternate, alternate hops, blocked_od sum"
    frozen (custom_decide_runs ())

(* the decision rules of the compiled custom-decide policies, written as
   list walks over the route table: the reference they must agree with.
   Each maps the current occupancy and a call's endpoints to its path,
   or [None] when the call is lost *)
let capacities_of_graph g =
  Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g)

let fits ~occupancy bound p =
  List.for_all (fun k -> occupancy.(k) < bound k) (Path.link_ids p)

let reference_ott_krishnan ~matrix routes =
  let capacities = capacities_of_graph (Route_table.graph routes) in
  let loads = Loads.primary_link_loads routes matrix in
  let tables =
    Array.mapi
      (fun k c ->
        if loads.(k) <= 0. || c = 0 then None
        else
          Some
            (Arnet_erlang.Shadow_price.make ~offered:loads.(k) ~capacity:c))
      capacities
  in
  let price occupancy k =
    if occupancy.(k) >= capacities.(k) then infinity
    else
      match tables.(k) with
      | None -> 0.
      | Some t -> Arnet_erlang.Shadow_price.price t occupancy.(k)
  in
  fun ~occupancy ~src ~dst ->
    let cost p =
      List.fold_left
        (fun acc k -> acc +. price occupancy k)
        0. (Path.link_ids p)
    in
    let best =
      List.fold_left
        (fun best p ->
          let c = cost p in
          match best with
          | Some (_, b) when b <= c -> best
          | _ when c = infinity -> best
          | _ -> Some (p, c))
        None
        (Route_table.all_paths routes ~src ~dst)
    in
    match best with Some (p, c) when c <= 1. -> Some p | _ -> None

let reference_least_busy ~reserves routes =
  let capacities = capacities_of_graph (Route_table.graph routes) in
  fun ~occupancy ~src ~dst ->
    let primary = Route_table.primary routes ~src ~dst in
    if fits ~occupancy (fun k -> capacities.(k)) primary then Some primary
    else
      match
        List.filter
          (fits ~occupancy (fun k -> capacities.(k) - reserves.(k)))
          (Route_table.alternates routes ~src ~dst)
      with
      | [] -> None
      | first :: _ as admissible ->
        let free p =
          List.fold_left
            (fun acc k -> min acc (capacities.(k) - occupancy.(k)))
            max_int (Path.link_ids p)
        in
        List.filter (fun p -> Path.hops p = Path.hops first) admissible
        |> List.stable_sort (fun a b -> compare (free b) (free a))
        |> List.hd |> Option.some

let reference_length_aware ~matrix routes =
  let capacities = capacities_of_graph (Route_table.graph routes) in
  let loads = Loads.primary_link_loads routes matrix in
  let max_h = max 1 (Route_table.h routes) in
  let threshold l k =
    capacities.(k)
    - Protection.link_level ~offered:loads.(k) ~capacity:capacities.(k) ~h:l
  in
  fun ~occupancy ~src ~dst ->
    let primary = Route_table.primary routes ~src ~dst in
    if fits ~occupancy (fun k -> capacities.(k)) primary then Some primary
    else
      List.find_opt
        (fun p ->
          let l = Path.hops p in
          l <= max_h && fits ~occupancy (threshold l) p)
        (Route_table.alternates routes ~src ~dst)

(* random small networks: links (some of capacity 0) on a random subset
   of ordered pairs, random demands, a random H, and sometimes primaries
   that are each pair's longest path, beyond H *)
let random_network_gen =
  QCheck2.Gen.(
    let* n = int_range 3 6 in
    let pairs = n * (n - 1) in
    let* caps = list_repeat pairs (int_range (-3) 5) in
    let* demands = list_repeat pairs (int_range 0 3) in
    let* h = int_range 1 (n - 1) in
    let* longest_primary = bool in
    let* seed = int_range 1 10_000 in
    return (n, caps, demands, h, longest_primary, seed))

(* the network a generated case describes, its route table, random
   reserves and a 15-unit trace *)
let random_network (n, caps, demands, h, longest_primary, seed) =
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i <> j then Some (i, j) else None)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let links =
    List.combine pairs caps
    |> List.filter (fun (_, c) -> c >= 0)
    |> List.mapi (fun id ((src, dst), capacity) ->
           Link.make ~id ~src ~dst ~capacity)
  in
  let g = Graph.create ~nodes:n links in
  let demand = List.combine pairs demands in
  let matrix =
    Matrix.make ~nodes:n (fun i j ->
        match List.assoc_opt (i, j) demand with
        | Some d when d > 0 -> float_of_int d
        | _ -> if i = 0 && j = 1 then 0.5 else 0.)
  in
  let primary =
    if not longest_primary then None
    else
      Some
        (fun ~src ~dst ->
          List.fold_left
            (fun _ p -> Some p)
            None
            (Enumerate.simple_paths g ~src ~dst))
  in
  let routes = Route_table.build ~h ?primary g in
  let reserves =
    Array.mapi
      (fun k c -> if c = 0 then 0 else (k + seed) mod (c + 1))
      (capacities_of_graph g)
  in
  let trace = Trace.generate ~rng:(Rng.create ~seed) ~duration:15. matrix in
  (g, matrix, routes, reserves, trace)

let prop_custom_decide_matches_reference =
  QCheck2.Test.make ~count:100
    ~name:"compiled custom-decide policies = list-walking reference"
    random_network_gen
    (fun case ->
      let g, matrix, routes, reserves, trace = random_network case in
      let agrees policy reference =
        let ok = ref true in
        let spy =
          { policy with
            Engine.decide =
              (fun ~occupancy trace i ->
                let src = trace.Trace.srcs.(i)
                and dst = trace.Trace.dsts.(i) in
                let routed = Route_table.has_route routes ~src ~dst in
                let decision = policy.Engine.decide ~occupancy trace i in
                let expected =
                  if routed then reference ~occupancy ~src ~dst else None
                in
                (match (decision, expected) with
                | Engine.Routed p, Some q when Path.equal p q -> ()
                | Engine.Lost, None -> ()
                | _ -> ok := false);
                (match policy.Engine.primary trace i with
                | Some p when routed ->
                  if not (Path.equal p (Route_table.primary routes ~src ~dst))
                  then ok := false
                | None when not routed -> ()
                | _ -> ok := false);
                decision) }
        in
        ignore (Engine.run ~warmup:0. ~graph:g ~policy:spy trace : Stats.t);
        !ok
      in
      agrees (Scheme.ott_krishnan ~matrix routes)
        (reference_ott_krishnan ~matrix routes)
      && agrees (Scheme.least_busy routes)
           (reference_least_busy
              ~reserves:(Array.make (Array.length reserves) 0)
              routes)
      && agrees (Scheme.least_busy ~reserves routes)
           (reference_least_busy ~reserves routes)
      && agrees
           (Scheme.controlled_length_aware ~matrix routes)
           (reference_length_aware ~matrix routes))

(* the two-tier rule written as a list walk over the route table, the
   reference the compiled plans must agree with: the primary (the
   table's, or a sampled one) below C on every link; then, when
   alternates are allowed, the stored alternates excluding that primary,
   in attempt order, each below C - r on every link.  It narrates as it
   goes: one [Primary_attempt], then one [Alternate_rejected] per refused
   alternate with the first link at or above its threshold.  Single-rate:
   a call takes one unit *)
let reference_two_tier ~reserves ~allow_alternates ~choice routes ~occupancy
    (trace : Trace.t) i =
  let capacities = capacities_of_graph (Route_table.graph routes) in
  let src = trace.Trace.srcs.(i) and dst = trace.Trace.dsts.(i) in
  let time = trace.Trace.times.(i) in
  let primary =
    match choice with
    | Controller.Table ->
      if Route_table.has_route routes ~src ~dst then
        Some (Route_table.primary routes ~src ~dst)
      else None
    | Controller.Sampled f -> f ~src ~dst ~u:trace.Trace.us.(i)
  in
  match primary with
  | None -> (None, [])
  | Some p ->
    let admitted = fits ~occupancy (fun k -> capacities.(k)) p in
    let attempt =
      Arnet_obs.Event.Primary_attempt
        { time; src; dst; hops = Path.hops p; admitted }
    in
    if admitted then (Some p, [ attempt ])
    else if not allow_alternates then (None, [ attempt ])
    else begin
      let threshold k = capacities.(k) - reserves.(k) in
      let rec walk events = function
        | [] -> (None, List.rev events)
        | q :: rest -> (
          match
            List.find_opt
              (fun k -> occupancy.(k) >= threshold k)
              (Path.link_ids q)
          with
          | None -> (Some q, List.rev events)
          | Some link ->
            walk
              (Arnet_obs.Event.Alternate_rejected
                 { time;
                   src;
                   dst;
                   hops = Path.hops q;
                   link;
                   occupancy = occupancy.(link);
                   threshold = threshold link }
              :: events)
              rest)
      in
      walk [ attempt ] (Route_table.alternates_excluding routes ~src ~dst p)
    end

(* a bifurcated primary: one of the pair's first [among] paths in
   [Route_table.all_paths] order, picked by the call's uniform variate *)
let sampled_among among routes =
  Controller.Sampled
    (fun ~src ~dst ~u ->
      match Route_table.all_paths routes ~src ~dst with
      | [] -> None
      | paths ->
        let m = min among (List.length paths) in
        let j = min (m - 1) (int_of_float (u *. float_of_int m)) in
        Some (List.nth paths j))

let prop_two_tier_matches_reference =
  QCheck2.Test.make ~count:100
    ~name:"observed two-tier decisions and narration = list-walking reference"
    random_network_gen
    (fun case ->
      let g, _, routes, reserves, trace = random_network case in
      let agrees ~allow_alternates ~reserves ~choice scheme =
        let events = ref [] in
        let policy = scheme ~observer:(fun e -> events := e :: !events) in
        let ok = ref true in
        let spy =
          { policy with
            Engine.decide =
              (fun ~occupancy trace i ->
                events := [];
                let expected, narration =
                  reference_two_tier ~reserves ~allow_alternates ~choice routes
                    ~occupancy trace i
                in
                let decision = policy.Engine.decide ~occupancy trace i in
                (match (decision, expected) with
                | Engine.Routed p, Some q when Path.equal p q -> ()
                | Engine.Lost, None -> ()
                | _ -> ok := false);
                if not (List.equal Arnet_obs.Event.equal (List.rev !events)
                          narration)
                then ok := false;
                decision) }
        in
        ignore (Engine.run ~warmup:0. ~graph:g ~policy:spy trace : Stats.t);
        !ok
      in
      let zeros = Array.make (Array.length reserves) 0 in
      List.for_all
        (fun choice ->
          agrees ~allow_alternates:true ~reserves ~choice
            (fun ~observer ->
              Scheme.controlled ~observer ~choice ~reserves routes)
          && agrees ~allow_alternates:false ~reserves:zeros ~choice
               (fun ~observer -> Scheme.single_path ~observer ~choice routes))
        [ Controller.Table; sampled_among max_int routes ])

(* bifurcated primaries on nominal NSFNet, frozen per seed like the
   custom-decide golden: each call's primary is one of its pair's three
   shortest paths, so many primaries are not the table's *)
let sampled_runs () =
  let routes, matrix = Arnet_experiments.Internet.nominal () in
  let g = Route_table.graph routes in
  let choice = sampled_among 3 routes in
  let reserves = Protection.levels routes matrix ~h:(Route_table.h routes) in
  let policies =
    [ Scheme.single_path ~choice routes;
      Scheme.controlled ~choice ~reserves routes ]
  in
  List.concat_map
    (fun seed ->
      let trace =
        Trace.generate
          ~rng:(Rng.substream (Rng.create ~seed) "trace")
          ~duration:12. matrix
      in
      List.map
        (fun policy ->
          ( Printf.sprintf "seed %d %s" seed (Scheme.name_of policy),
            fingerprint (Engine.run ~warmup:4. ~graph:g ~policy trace) ))
        policies)
    [ 1; 2 ]

let test_sampled_golden () =
  let frozen =
    [ ("seed 1 single-path",
        [ 7721; 2195; 5526; 0; 0; 188090 ]);
      ("seed 1 controlled",
        [ 7721; 1725; 5461; 535; 1127; 151896 ]);
      ("seed 2 single-path",
        [ 7713; 2094; 5619; 0; 0; 180287 ]);
      ("seed 2 controlled",
        [ 7713; 1561; 5614; 538; 1187; 139221 ]) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "offered, blocked, primary, alternate, alternate hops, blocked_od sum"
    frozen (sampled_runs ())

(* ------------------------------------------------------------------ *)
(* Theorem 1 *)

let test_theorem_holds_across_grid () =
  List.iter
    (fun (primary, capacity, reserve) ->
      List.iter
        (fun overflow ->
          Alcotest.(check bool)
            (Printf.sprintf "nu=%g C=%d r=%d" primary capacity reserve)
            true
            (Theorem.verify ~primary ~overflow ~capacity ~reserve))
        [ (fun _ -> 0.);
          (fun _ -> 5.);
          (fun s -> float_of_int s);
          (fun s -> 20. /. (1. +. float_of_int s)) ])
    [ (5., 10, 2); (7., 10, 3); (50., 60, 5); (80., 100, 10); (120., 100, 30) ]

let test_theorem_exact_loss_positive_and_bounded () =
  let primary = 7. and capacity = 10 and reserve = 3 in
  let overflow _ = 2. in
  let bound = Theorem.bound ~primary ~capacity ~reserve in
  for s = 0 to capacity - reserve - 1 do
    let l = Theorem.extra_loss_exact ~primary ~overflow ~capacity ~reserve ~state:s in
    Alcotest.(check bool) "positive" true (l > 0.);
    Alcotest.(check bool) "below bound" true (l <= bound +. 1e-9)
  done;
  check_invalid "state in protected region" (fun () ->
      ignore
        (Theorem.extra_loss_exact ~primary ~overflow ~capacity ~reserve
           ~state:(capacity - reserve)))

let test_theorem_loss_increases_with_state () =
  (* seizing a circuit on a fuller link displaces more future primaries *)
  let primary = 7. and capacity = 10 and reserve = 3 in
  let overflow _ = 1. in
  let prev = ref 0. in
  for s = 0 to capacity - reserve - 1 do
    let l = Theorem.extra_loss_exact ~primary ~overflow ~capacity ~reserve ~state:s in
    Alcotest.(check bool) "monotone in state" true (l >= !prev);
    prev := l
  done

let test_theorem_bound_independent_of_overflow () =
  let b1 = Theorem.bound ~primary:10. ~capacity:20 ~reserve:4 in
  feq_at 1e-12 "bound is the blocking ratio"
    (Arnet_erlang.Erlang_b.blocking_ratio ~offered:10. ~capacity:20 ~reserve:4)
    b1

(* ------------------------------------------------------------------ *)
(* Approximation (fixed point of the controlled scheme) *)

let test_approx_single_link_is_erlang () =
  (* one isolated link: the fixed point is plain Erlang B *)
  let g = Graph.create ~nodes:2 [ Link.make ~id:0 ~src:0 ~dst:1 ~capacity:20 ] in
  let routes = Route_table.build g in
  let matrix = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then 15. else 0.) in
  let t = Approximation.solve ~routes ~reserves:[| 0 |] matrix in
  Alcotest.(check bool) "converged" true t.Approximation.converged;
  feq_at 1e-6 "Erlang B recovered"
    (Arnet_erlang.Erlang_b.blocking ~offered:15. ~capacity:20)
    t.Approximation.network_blocking

let test_approx_full_reserve_is_single_path () =
  (* reserves = capacity: alternates never admitted, so the fixed point
     must match the primaries-only reduced-load model *)
  let g = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand:28. in
  let capacities =
    Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g)
  in
  let t = Approximation.solve ~routes ~reserves:capacities matrix in
  (* primaries in K4 are single links: expected loss = B(28, 30) per pair *)
  feq_at 1e-4 "single-path fixed point"
    (Arnet_erlang.Erlang_b.blocking ~offered:28. ~capacity:30)
    t.Approximation.network_blocking

let test_approx_matches_simulation () =
  let routes, nominal = Arnet_experiments.Internet.nominal () in
  let g = Route_table.graph routes in
  let reserves = Protection.levels routes nominal ~h:(Route_table.h routes) in
  let approx = Approximation.solve ~routes ~reserves nominal in
  Alcotest.(check bool) "converged" true approx.Approximation.converged;
  let results =
    Engine.replicate ~warmup:10. ~seeds:[ 1; 2; 3 ] ~duration:60. ~graph:g
      ~matrix:nominal
      ~policies:[ Scheme.controlled ~reserves routes ]
      ()
  in
  let sim =
    (Stats.blocking_summary (List.assoc "controlled" results)).Stats.mean
  in
  Alcotest.(check bool)
    (Printf.sprintf "approx %.4f within 2pp of sim %.4f"
       approx.Approximation.network_blocking sim)
    true
    (Float.abs (approx.Approximation.network_blocking -. sim) < 0.02)

let test_approx_pair_blocking_consistent () =
  let routes, nominal = Arnet_experiments.Internet.nominal () in
  let reserves = Protection.levels routes nominal ~h:11 in
  let t = Approximation.solve ~routes ~reserves nominal in
  (* demand-weighted pair blocking re-aggregates to the network figure *)
  let lost = ref 0. and total = ref 0. in
  Matrix.iter_demands nominal (fun src dst d ->
      total := !total +. d;
      lost := !lost +. (d *. Approximation.pair_blocking t ~routes ~src ~dst));
  feq_at 1e-9 "aggregation consistent" t.Approximation.network_blocking
    (!lost /. !total);
  (* unrouted pairs are fully blocked *)
  let g2 = Graph.of_edges ~nodes:3 ~capacity:5 [ (0, 1) ] in
  let r2 = Route_table.build g2 in
  let m2 = Matrix.make ~nodes:3 (fun i j -> if i = 0 && j = 1 then 1. else 0.) in
  let t2 = Approximation.solve ~routes:r2 ~reserves:[| 0; 0 |] m2 in
  feq_at 1e-12 "unrouted pair" 1.
    (Approximation.pair_blocking t2 ~routes:r2 ~src:0 ~dst:2)

let test_approx_validation () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:5 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:3 ~demand:1. in
  check_invalid "reserves length" (fun () ->
      ignore (Approximation.solve ~routes ~reserves:[| 0 |] matrix));
  check_invalid "bad damping" (fun () ->
      ignore
        (Approximation.solve ~damping:0.
           ~routes
           ~reserves:(Array.make (Graph.link_count g) 0)
           matrix));
  check_invalid "matrix size" (fun () ->
      ignore
        (Approximation.solve ~routes
           ~reserves:(Array.make (Graph.link_count g) 0)
           (Matrix.uniform ~nodes:4 ~demand:1.)))

(* ------------------------------------------------------------------ *)
(* Bistability (mean-field avalanche model) *)

let test_bistability_band () =
  (* inside the band: cold and hot starts settle on different regimes *)
  let cold = Bistability.fixed_point_from ~offered:75. ~capacity:100 ~reserve:0 `Cold in
  let hot = Bistability.fixed_point_from ~offered:75. ~capacity:100 ~reserve:0 `Hot in
  Alcotest.(check bool) "cold regime is low" true
    (cold.Bistability.network_blocking < 0.01);
  Alcotest.(check bool) "hot regime is high" true
    (hot.Bistability.network_blocking > 0.10);
  Alcotest.(check bool) "bistable at 75" true
    (Bistability.is_bistable ~offered:75. ~capacity:100 ~reserve:0 ());
  (* outside the band on both sides: unique fixed point *)
  Alcotest.(check bool) "monostable at 60" false
    (Bistability.is_bistable ~offered:60. ~capacity:100 ~reserve:0 ());
  Alcotest.(check bool) "monostable at 100 (high)" false
    (Bistability.is_bistable ~offered:100. ~capacity:100 ~reserve:0 ())

let test_bistability_protection_removes_it () =
  List.iter
    (fun offered ->
      Alcotest.(check bool)
        (Printf.sprintf "r=5 monostable at %g" offered)
        false
        (Bistability.is_bistable ~offered ~capacity:100 ~reserve:5 ()))
    [ 70.; 75.; 80.; 85. ];
  (* and the protected overload blocking is far below the free hot state *)
  let free = Bistability.fixed_point_from ~offered:100. ~capacity:100 ~reserve:0 `Hot in
  let prot = Bistability.fixed_point_from ~offered:100. ~capacity:100 ~reserve:5 `Hot in
  Alcotest.(check bool) "protection tames the overload regime" true
    (prot.Bistability.network_blocking
    < 0.5 *. free.Bistability.network_blocking)

let test_bistability_critical_load () =
  (match Bistability.critical_load ~capacity:100 ~reserve:0 () with
  | Some a -> Alcotest.(check bool) "onset in [60, 75]" true (a > 60. && a < 75.)
  | None -> Alcotest.fail "free model must be bistable somewhere");
  Alcotest.(check bool) "protected model never bistable" true
    (Bistability.critical_load ~capacity:100 ~reserve:10 () = None)

let test_bistability_validation () =
  check_invalid "bad load" (fun () ->
      ignore
        (Bistability.fixed_point_from ~offered:0. ~capacity:10 ~reserve:0 `Cold));
  check_invalid "reserve = capacity" (fun () ->
      ignore
        (Bistability.fixed_point_from ~offered:1. ~capacity:10 ~reserve:10
           `Cold));
  check_invalid "attempts < 1" (fun () ->
      ignore
        (Bistability.fixed_point_from ~attempts:0 ~offered:1. ~capacity:10
           ~reserve:0 `Cold))

let prop_bistability_cold_below_hot =
  QCheck2.Test.make ~count:40 ~name:"cold fixed point never above hot"
    QCheck2.Gen.(
      let* offered = float_range 10. 120. in
      let* reserve = int_range 0 10 in
      let* attempts = int_range 1 12 in
      return (offered, reserve, attempts))
    (fun (offered, reserve, attempts) ->
      let fp start =
        Bistability.fixed_point_from ~attempts ~offered ~capacity:100
          ~reserve start
      in
      let cold = fp `Cold and hot = fp `Hot in
      cold.Bistability.network_blocking
      <= hot.Bistability.network_blocking +. 1e-6
      && cold.Bistability.network_blocking >= 0.
      && hot.Bistability.network_blocking <= 1.)

let prop_theorem_random_overflow =
  QCheck2.Test.make ~count:60 ~name:"Theorem 1 under random overflow patterns"
    QCheck2.Gen.(
      let* nu = float_range 1. 60. in
      let* c = int_range 3 60 in
      let* r = int_range 0 3 in
      let* o = float_range 0. 50. in
      let* decay = float_range 0.1 2. in
      return (nu, c, min r (c - 1), o, decay))
    (fun (nu, c, r, o, decay) ->
      let overflow s = o *. exp (-.decay *. float_of_int s) in
      Theorem.verify ~primary:nu ~overflow ~capacity:c ~reserve:r)

let () =
  Alcotest.run "core"
    [ ( "protection",
        [ Alcotest.test_case "table 1 regression" `Quick test_protection_table1;
          Alcotest.test_case "small properties" `Quick
            test_protection_properties_small;
          Alcotest.test_case "levels of loads" `Quick
            test_protection_levels_of_loads;
          Alcotest.test_case "levels from matrix" `Quick
            test_protection_levels_from_matrix;
          Alcotest.test_case "sweep monotone" `Quick
            test_protection_sweep_monotone;
          Alcotest.test_case "path guarantee <= 1" `Quick test_path_guarantee ] );
      ( "admission",
        [ Alcotest.test_case "link rules" `Quick test_admission_rules;
          Alcotest.test_case "path rules" `Quick test_admission_paths;
          Alcotest.test_case "validation" `Quick test_admission_validation ] );
      ( "controller",
        [ Alcotest.test_case "primary_for" `Quick test_controller_primary_for;
          Alcotest.test_case "decide" `Quick test_controller_decide ] );
      ( "scheme",
        [ Alcotest.test_case "single-path" `Quick test_scheme_single_path;
          Alcotest.test_case "uncontrolled vs controlled" `Quick
            test_scheme_uncontrolled_vs_controlled;
          Alcotest.test_case "protection threshold" `Quick
            test_scheme_controlled_threshold;
          Alcotest.test_case "controlled_auto" `Quick
            test_scheme_controlled_auto_matches_manual;
          Alcotest.test_case "ott-krishnan basic" `Quick
            test_scheme_ott_krishnan_basic;
          Alcotest.test_case "ott-krishnan price blocking" `Quick
            test_scheme_ott_krishnan_blocks_on_price;
          Alcotest.test_case "ott-krishnan validation" `Quick
            test_scheme_ott_krishnan_validation;
          Alcotest.test_case "ott-krishnan reduced" `Quick
            test_scheme_ott_krishnan_reduced;
          Alcotest.test_case "least-busy" `Quick test_scheme_least_busy;
          Alcotest.test_case "length-aware" `Quick test_scheme_length_aware;
          Alcotest.test_case "frozen custom-decide golden" `Quick
            test_custom_decide_golden;
          QCheck_alcotest.to_alcotest prop_custom_decide_matches_reference;
          QCheck_alcotest.to_alcotest prop_two_tier_matches_reference;
          Alcotest.test_case "frozen sampled-primary golden" `Quick
            test_sampled_golden;
          Alcotest.test_case "degenerate topologies" `Quick
            test_scheme_degenerate_topologies ] );
      ( "approximation",
        [ Alcotest.test_case "single link = Erlang" `Quick
            test_approx_single_link_is_erlang;
          Alcotest.test_case "full reserve = single-path" `Quick
            test_approx_full_reserve_is_single_path;
          Alcotest.test_case "matches simulation" `Slow
            test_approx_matches_simulation;
          Alcotest.test_case "pair blocking consistent" `Quick
            test_approx_pair_blocking_consistent;
          Alcotest.test_case "validation" `Quick test_approx_validation ] );
      ( "bistability",
        [ Alcotest.test_case "bistable band" `Quick test_bistability_band;
          Alcotest.test_case "protection removes it" `Quick
            test_bistability_protection_removes_it;
          Alcotest.test_case "critical load" `Quick
            test_bistability_critical_load;
          Alcotest.test_case "validation" `Quick test_bistability_validation;
          QCheck_alcotest.to_alcotest prop_bistability_cold_below_hot ] );
      ( "theorem",
        [ Alcotest.test_case "grid" `Quick test_theorem_holds_across_grid;
          Alcotest.test_case "exact loss bounded" `Quick
            test_theorem_exact_loss_positive_and_bounded;
          Alcotest.test_case "loss monotone in state" `Quick
            test_theorem_loss_increases_with_state;
          Alcotest.test_case "bound formula" `Quick
            test_theorem_bound_independent_of_overflow;
          QCheck_alcotest.to_alcotest prop_theorem_random_overflow ] ) ]
