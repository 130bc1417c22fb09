(* The estimator, the adaptive controlled scheme, and footnote-5
   per-link H^k levels. *)

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
(* Estimator *)

let test_estimator_constant_rate () =
  let e = Estimator.create ~window:1. ~smoothing:0.5 () in
  (* 4 arrivals per unit time for 30 units *)
  for i = 0 to 119 do
    Estimator.observe e ~now:(float_of_int i /. 4.)
  done;
  feq_at 0.2 "converges to the rate" 4. (Estimator.estimate e ~now:30.);
  Alcotest.(check int) "observations counted" 120 (Estimator.observations e)

let test_estimator_tracks_change () =
  let e = Estimator.create ~window:1. ~smoothing:0.5 () in
  for i = 0 to 39 do
    Estimator.observe e ~now:(float_of_int i /. 4.)  (* rate 4 until t=10 *)
  done;
  let high = Estimator.estimate e ~now:10. in
  (* silence for 10 units: the estimate must decay towards zero *)
  let low = Estimator.estimate e ~now:20. in
  Alcotest.(check bool) "decays when traffic stops" true (low < 0.1 *. high);
  Alcotest.(check bool) "never negative" true (low >= 0.)

let test_estimator_initial_seed () =
  let e = Estimator.create ~initial:42. () in
  feq_at 1e-9 "cold start returns seed" 42. (Estimator.estimate e ~now:0.);
  (* seeded value fades as real (empty) windows arrive *)
  Alcotest.(check bool) "seed fades" true (Estimator.estimate e ~now:100. < 1.)

let test_estimator_holding_scale () =
  let e = Estimator.create ~window:1. ~smoothing:1. ~mean_holding:2. () in
  for i = 0 to 9 do
    Estimator.observe e ~now:(0.05 +. float_of_int i)
  done;
  (* rate 1/unit * holding 2 = 2 Erlangs *)
  feq_at 1e-9 "erlangs = rate x holding" 2. (Estimator.estimate e ~now:10.)

let test_estimator_validation () =
  check_invalid "bad window" (fun () ->
      ignore (Estimator.create ~window:0. ()));
  check_invalid "bad smoothing" (fun () ->
      ignore (Estimator.create ~smoothing:1.5 ()));
  check_invalid "negative initial" (fun () ->
      ignore (Estimator.create ~initial:(-1.) ()));
  let e = Estimator.create () in
  Estimator.observe e ~now:5.;
  check_invalid "time backwards" (fun () -> Estimator.observe e ~now:4.)

(* ------------------------------------------------------------------ *)
(* per-link H^k *)

let test_per_link_h_values () =
  (* K4 with H=3: the direct links carry 3-hop alternates, so H^k = 3 *)
  let g = Builders.full_mesh ~nodes:4 ~capacity:10 in
  let routes = Route_table.build g in
  let hs = Protection.per_link_h routes in
  Array.iter (fun h -> Alcotest.(check int) "K4 all links see 3-hop alts" 3 h) hs;
  (* line graph: no alternates at all -> H^k = 1 everywhere *)
  let line = Builders.line ~nodes:4 ~capacity:10 in
  let lr = Route_table.build line in
  Array.iter
    (fun h -> Alcotest.(check int) "line has no alternates" 1 h)
    (Protection.per_link_h lr)

let test_per_link_h_levels_never_higher () =
  let g = Nsfnet.graph () in
  let routes = Route_table.build ~h:6 g in
  let _, fit = Fit.nsfnet_nominal () in
  let matrix = fit.Fit.matrix in
  let global = Protection.levels routes matrix ~h:6 in
  let per_link = Protection.levels_per_link_h routes matrix in
  Array.iteri
    (fun k r ->
      Alcotest.(check bool) "per-link level <= global level" true
        (r <= global.(k)))
    per_link

let test_per_link_h_guarantee_preserved () =
  (* every alternate path's summed bound stays <= 1 under per-link H^k *)
  let g = Nsfnet.graph () in
  let routes = Route_table.build ~h:6 g in
  let _, fit = Fit.nsfnet_nominal () in
  let loads = Loads.primary_link_loads routes fit.Fit.matrix in
  let capacities =
    Array.map (fun (l : Link.t) -> l.capacity) (Graph.links g)
  in
  let reserves = Protection.levels_per_link_h routes fit.Fit.matrix in
  let admissible p =
    List.for_all (fun k -> reserves.(k) < capacities.(k)) (Path.link_ids p)
  in
  for src = 0 to 11 do
    for dst = 0 to 11 do
      if src <> dst then
        List.iter
          (fun p ->
            if admissible p then
              Alcotest.(check bool)
                (Printf.sprintf "guarantee on %s" (Path.to_string p))
                true
                (Protection.path_guarantee ~capacities ~loads ~reserves
                   ~link_ids:(Path.link_ids p)
                <= 1. +. 1e-9))
          (Route_table.alternates routes ~src ~dst)
    done
  done

(* ------------------------------------------------------------------ *)
(* adaptive scheme *)

let test_adaptive_learns_protection () =
  (* under sustained overload the adaptive scheme must start refusing
     alternates like the a-priori controlled scheme does *)
  let g = Builders.full_mesh ~nodes:4 ~capacity:50 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:4 ~demand:50. in
  let seeds = [ 1; 2; 3 ] in
  let results =
    Engine.replicate_fresh ~warmup:20. ~seeds ~duration:120. ~graph:g ~matrix
      ~policies:(fun () ->
        [ Scheme.single_path routes;
          Scheme.uncontrolled routes;
          Scheme.controlled_auto ~matrix routes;
          Scheme.controlled_adaptive ~refresh:5. routes ])
      ()
  in
  let mean name =
    (Stats.blocking_summary (List.assoc name results)).Stats.mean
  in
  Alcotest.(check bool) "uncontrolled collapses" true
    (mean "uncontrolled" > mean "single-path");
  Alcotest.(check bool) "adaptive avoids the collapse" true
    (mean "controlled-adaptive" < mean "uncontrolled");
  Alcotest.(check bool) "adaptive close to a-priori controlled" true
    (Float.abs (mean "controlled-adaptive" -. mean "controlled") < 0.05)

let test_adaptive_initial_loads () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:10 in
  let routes = Route_table.build g in
  let loads = Array.make (Graph.link_count g) 9. in
  let policy = Scheme.controlled_adaptive ~initial_loads:loads routes in
  Alcotest.(check string) "named" "controlled-adaptive" (Scheme.name_of policy);
  check_invalid "bad refresh" (fun () ->
      ignore (Scheme.controlled_adaptive ~refresh:0. routes));
  (* NaN fails every comparison: a [<= 0.] test would let it through,
     and the levels would never be recomputed *)
  check_invalid "NaN refresh" (fun () ->
      ignore (Scheme.controlled_adaptive ~refresh:nan routes));
  Alcotest.(check string) "infinite refresh is legal" "controlled-adaptive"
    (Scheme.name_of (Scheme.controlled_adaptive ~refresh:infinity routes))

(* the adaptive scheme on NSFNet at 1.3x nominal, frozen per seed:
   offered, blocked, carried primary, carried alternate, alternate hops
   and a checksum of [blocked_od].  Links start unprotected and learn
   their levels over three refreshes *)
let adaptive_runs () =
  let routes, nominal = Arnet_experiments.Internet.nominal () in
  let g = Route_table.graph routes in
  let matrix = Matrix.scale nominal 1.3 in
  List.map
    (fun seed ->
      let trace =
        Trace.generate
          ~rng:(Rng.substream (Rng.create ~seed) "trace")
          ~duration:40. matrix
      in
      let s =
        Engine.run ~warmup:4. ~graph:g
          ~policy:(Scheme.controlled_adaptive routes)
          trace
      in
      let od, _ =
        Array.fold_left
          (fun (acc, i) b -> (acc + ((i + 1) * b), i + 1))
          (0, 0) s.Stats.blocked_od
      in
      ( Printf.sprintf "seed %d" seed,
        [ s.Stats.offered;
          s.Stats.blocked;
          s.Stats.carried_primary;
          s.Stats.carried_alternate;
          s.Stats.alternate_hops;
          od ] ))
    [ 1; 2 ]

let test_adaptive_golden () =
  let frozen =
    [ ("seed 1",
        [ 45119; 9411; 33687; 2021; 7765; 853301 ]);
      ("seed 2",
        [ 45367; 9319; 34048; 2000; 7720; 832499 ]) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "offered, blocked, primary, alternate, alternate hops, blocked_od sum"
    frozen (adaptive_runs ())

let test_replicate_fresh_guards_names () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:5 in
  let routes = Route_table.build g in
  let matrix = Matrix.uniform ~nodes:3 ~demand:2. in
  let flip = ref true in
  check_invalid "factory must be stable" (fun () ->
      ignore
        (Engine.replicate_fresh ~seeds:[ 1; 2 ] ~duration:20. ~graph:g ~matrix
           ~policies:(fun () ->
             flip := not !flip;
             if !flip then [ Scheme.single_path routes ]
             else [ Scheme.uncontrolled routes ])
           ()))

let () =
  Alcotest.run "adaptive"
    [ ( "estimator",
        [ Alcotest.test_case "constant rate" `Quick test_estimator_constant_rate;
          Alcotest.test_case "tracks change" `Quick test_estimator_tracks_change;
          Alcotest.test_case "initial seed" `Quick test_estimator_initial_seed;
          Alcotest.test_case "holding scale" `Quick test_estimator_holding_scale;
          Alcotest.test_case "validation" `Quick test_estimator_validation ] );
      ( "per-link-h",
        [ Alcotest.test_case "values" `Quick test_per_link_h_values;
          Alcotest.test_case "levels never higher" `Quick
            test_per_link_h_levels_never_higher;
          Alcotest.test_case "guarantee preserved" `Quick
            test_per_link_h_guarantee_preserved ] );
      ( "adaptive-scheme",
        [ Alcotest.test_case "learns protection" `Slow
            test_adaptive_learns_protection;
          Alcotest.test_case "construction" `Quick test_adaptive_initial_loads;
          Alcotest.test_case "frozen NSFNet golden" `Quick test_adaptive_golden;
          Alcotest.test_case "replicate_fresh name guard" `Quick
            test_replicate_fresh_guards_names ] ) ]
