open Arnet_topology
open Arnet_paths

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let triangle () = Graph.of_edges ~nodes:3 ~capacity:5 [ (0, 1); (1, 2); (0, 2) ]
let k4 () = Builders.full_mesh ~nodes:4 ~capacity:10

(* a diamond where 0->3 has two 2-hop routes: via 1 and via 2 *)
let diamond () =
  Graph.of_edges ~nodes:4 ~capacity:5 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_make () =
  let g = triangle () in
  let p = Path.make g [ 0; 1; 2 ] in
  Alcotest.(check int) "hops" 2 (Path.hops p);
  Alcotest.(check int) "src" 0 (Path.src p);
  Alcotest.(check int) "dst" 2 (Path.dst p);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2 ] (Path.nodes p);
  let ids = Path.link_ids p in
  Alcotest.(check int) "two links" 2 (List.length ids);
  let links = Path.links g p in
  Alcotest.(check (list (pair int int))) "link endpoints" [ (0, 1); (1, 2) ]
    (List.map (fun (l : Link.t) -> (l.Link.src, l.Link.dst)) links)

let test_path_validation () =
  let g = triangle () in
  check_invalid "repeated node" (fun () -> ignore (Path.make g [ 0; 1; 0 ]));
  check_invalid "single node" (fun () -> ignore (Path.make g [ 0 ]));
  check_invalid "missing link" (fun () ->
      ignore
        (Path.make (Graph.of_edges ~nodes:3 ~capacity:1 [ (0, 1) ]) [ 0; 2 ]))

let test_path_mem () =
  let g = triangle () in
  let p = Path.make g [ 0; 1; 2 ] in
  Alcotest.(check bool) "mem node" true (Path.mem_node p 1);
  Alcotest.(check bool) "not mem node" false (Path.mem_node p 3);
  let id01 = (Graph.find_link_exn g ~src:0 ~dst:1).Link.id in
  let id20 = (Graph.find_link_exn g ~src:2 ~dst:0).Link.id in
  Alcotest.(check bool) "mem link" true (Path.mem_link p id01);
  Alcotest.(check bool) "not mem link" false (Path.mem_link p id20)

let test_path_ordering () =
  let g = k4 () in
  let short = Path.make g [ 0; 1 ] in
  let long = Path.make g [ 0; 2; 1 ] in
  let long' = Path.make g [ 0; 3; 1 ] in
  Alcotest.(check bool) "shorter first" true
    (Path.compare_by_length short long < 0);
  Alcotest.(check bool) "lexicographic among equals" true
    (Path.compare_by_length long long' < 0);
  Alcotest.(check bool) "equal" true (Path.equal short (Path.make g [ 0; 1 ]));
  Alcotest.(check string) "to_string" "[0-2-1]" (Path.to_string long)

(* ------------------------------------------------------------------ *)
(* Bfs *)

let test_bfs_distances () =
  let g = Builders.line ~nodes:5 ~capacity:1 in
  let d = Bfs.distances g ~src:0 in
  Alcotest.(check (list int)) "line distances" [ 0; 1; 2; 3; 4 ]
    (Array.to_list d);
  let d' = Bfs.distances_to g ~dst:0 in
  Alcotest.(check (list int)) "to-distances equal on symmetric graph"
    (Array.to_list d) (Array.to_list d')

let test_bfs_unreachable () =
  let g = Graph.of_edges ~nodes:3 ~capacity:1 [ (0, 1) ] in
  let d = Bfs.distances g ~src:0 in
  Alcotest.(check bool) "node 2 unreachable" true (d.(2) = max_int);
  Alcotest.(check bool) "no path" true (Bfs.min_hop_path g ~src:0 ~dst:2 = None)

let test_bfs_deterministic_tie_break () =
  let g = diamond () in
  match Bfs.min_hop_path g ~src:0 ~dst:3 with
  | None -> Alcotest.fail "path expected"
  | Some p ->
    Alcotest.(check (list int)) "lexicographically smallest shortest"
      [ 0; 1; 3 ] (Path.nodes p)

let test_bfs_min_hop_correct () =
  let g = Builders.ring ~nodes:6 ~capacity:1 in
  (match Bfs.min_hop_path g ~src:0 ~dst:2 with
  | Some p -> Alcotest.(check int) "2 hops around ring" 2 (Path.hops p)
  | None -> Alcotest.fail "expected path");
  check_invalid "src = dst" (fun () ->
      ignore (Bfs.min_hop_path g ~src:1 ~dst:1))

let test_eccentricity_diameter () =
  let ring = Builders.ring ~nodes:6 ~capacity:1 in
  Alcotest.(check int) "ring eccentricity" 3 (Bfs.eccentricity ring 0);
  Alcotest.(check int) "ring diameter" 3 (Bfs.diameter ring);
  let line = Builders.line ~nodes:5 ~capacity:1 in
  Alcotest.(check int) "line diameter" 4 (Bfs.diameter line);
  Alcotest.(check int) "nsfnet diameter" 5 (Bfs.diameter (Nsfnet.graph ()))

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_dijkstra_unit_weights_match_bfs () =
  let g = Nsfnet.graph () in
  for src = 0 to 11 do
    for dst = 0 to 11 do
      if src <> dst then begin
        let bfs = Option.get (Bfs.min_hop_path g ~src ~dst) in
        let dij =
          Option.get (Dijkstra.shortest_path g ~weight:(fun _ -> 1.) ~src ~dst)
        in
        Alcotest.(check int)
          (Printf.sprintf "same length %d->%d" src dst)
          (Path.hops bfs) (Path.hops dij)
      end
    done
  done

let test_dijkstra_routes_around_expensive_link () =
  let g = triangle () in
  let direct = (Graph.find_link_exn g ~src:0 ~dst:2).Link.id in
  let weight (l : Link.t) = if l.Link.id = direct then 10. else 1. in
  match Dijkstra.shortest_path g ~weight ~src:0 ~dst:2 with
  | Some p -> Alcotest.(check (list int)) "detour" [ 0; 1; 2 ] (Path.nodes p)
  | None -> Alcotest.fail "path expected"

let test_dijkstra_validation () =
  let g = triangle () in
  check_invalid "negative weight" (fun () ->
      ignore (Dijkstra.shortest_path g ~weight:(fun _ -> -1.) ~src:0 ~dst:2));
  check_invalid "src = dst" (fun () ->
      ignore (Dijkstra.shortest_path g ~weight:(fun _ -> 1.) ~src:0 ~dst:0));
  let d = Dijkstra.distances g ~weight:(fun _ -> 2.) ~src:0 in
  Alcotest.(check (float 1e-9)) "distance scaled" 2. d.(1)

(* ------------------------------------------------------------------ *)
(* Enumerate *)

let test_enumerate_k4 () =
  let g = k4 () in
  let paths = Enumerate.simple_paths g ~src:0 ~dst:1 in
  (* 1 direct + 2 two-hop + 2 three-hop *)
  Alcotest.(check int) "five simple paths in K4" 5 (List.length paths);
  Alcotest.(check (list int)) "sorted by length" [ 1; 2; 2; 3; 3 ]
    (List.map Path.hops paths);
  Alcotest.(check int) "count agrees" 5
    (Enumerate.count_simple_paths g ~src:0 ~dst:1);
  let capped = Enumerate.simple_paths ~max_hops:2 g ~src:0 ~dst:1 in
  Alcotest.(check int) "cap at 2 hops" 3 (List.length capped)

let test_enumerate_validation () =
  let g = k4 () in
  check_invalid "src = dst" (fun () ->
      ignore (Enumerate.simple_paths g ~src:1 ~dst:1));
  check_invalid "bad max_hops" (fun () ->
      ignore (Enumerate.simple_paths ~max_hops:0 g ~src:0 ~dst:1));
  (* the table's per-source walk, which replaced Enumerate.paths_from *)
  check_invalid "table row: bad h" (fun () ->
      ignore (Route_table.build ~h:0 g));
  check_invalid "table row: bad node" (fun () ->
      ignore (Route_table.candidates (Route_table.build g) ~src:4 ~dst:0));
  (* a one-node graph clamps the bound to 0 hops: an empty row *)
  let one = Graph.create ~nodes:1 [] in
  Alcotest.(check int) "one node: empty row" 0
    (List.length (Route_table.candidates (Route_table.build one) ~src:0 ~dst:0));
  Alcotest.(check int) "one node, h 3: empty row" 0
    (List.length
       (Route_table.candidates (Route_table.build ~h:3 one) ~src:0 ~dst:0))

let test_enumerate_census_nsfnet () =
  let g = Nsfnet.graph () in
  let census = Enumerate.path_census g in
  Alcotest.(check int) "132 ordered pairs" 132 (List.length census);
  let counts = List.map (fun (_, _, c) -> c) census in
  let mn = List.fold_left min max_int counts in
  let mx = List.fold_left max 0 counts in
  (* paper: ~9 alternates avg, min 5, max 15 -> total paths 6..16 *)
  Alcotest.(check int) "min total paths" 6 mn;
  Alcotest.(check int) "max total paths" 16 mx

(* ------------------------------------------------------------------ *)
(* Yen *)

let test_yen_equals_enumeration_on_hop_metric () =
  let g = Nsfnet.graph () in
  let pairs = [ (0, 6); (3, 10); (11, 2) ] in
  List.iter
    (fun (src, dst) ->
      let all = Enumerate.simple_paths g ~src ~dst in
      let k = min 7 (List.length all) in
      let yen = Yen.k_shortest g ~src ~dst ~k in
      let expect = List.filteri (fun i _ -> i < k) all |> List.map Path.nodes in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "yen = first-k of enumeration %d->%d" src dst)
        expect (List.map Path.nodes yen))
    pairs

let test_yen_weighted () =
  let g = triangle () in
  let direct = (Graph.find_link_exn g ~src:0 ~dst:2).Link.id in
  let weight (l : Link.t) = if l.Link.id = direct then 10. else 1. in
  let paths = Yen.k_shortest ~weight g ~src:0 ~dst:2 ~k:2 in
  Alcotest.(check (list (list int))) "cheap detour first"
    [ [ 0; 1; 2 ]; [ 0; 2 ] ]
    (List.map Path.nodes paths)

let test_yen_validation_and_k () =
  let g = triangle () in
  check_invalid "k < 1" (fun () -> ignore (Yen.k_shortest g ~src:0 ~dst:1 ~k:0));
  check_invalid "src = dst" (fun () ->
      ignore (Yen.k_shortest g ~src:0 ~dst:0 ~k:1));
  Alcotest.(check int) "k larger than path count" 2
    (List.length (Yen.k_shortest g ~src:0 ~dst:1 ~k:10));
  let disconnected = Graph.of_edges ~nodes:3 ~capacity:1 [ (0, 1) ] in
  Alcotest.(check int) "no paths" 0
    (List.length (Yen.k_shortest disconnected ~src:0 ~dst:2 ~k:3))

(* ------------------------------------------------------------------ *)
(* Suurballe *)

let test_suurballe_diamond () =
  let g = diamond () in
  match Suurballe.disjoint_pair g ~src:0 ~dst:3 with
  | Some (a, b) ->
    Alcotest.(check bool) "disjoint" true (Suurballe.is_link_disjoint a b);
    Alcotest.(check int) "total hops" 4 (Path.hops a + Path.hops b);
    Alcotest.(check bool) "shorter first" true (Path.hops a <= Path.hops b)
  | None -> Alcotest.fail "pair expected"

let test_suurballe_trap () =
  (* classic trap: both 2-hop-ish shortest routes share link 0->1; the
     optimum pair must avoid the greedy choice *)
  let g =
    Graph.of_edges ~nodes:6 ~capacity:1
      [ (0, 1); (1, 5); (0, 2); (2, 3); (3, 5); (1, 3) ]
  in
  match Suurballe.disjoint_pair g ~src:0 ~dst:5 with
  | Some (a, b) ->
    Alcotest.(check bool) "disjoint" true (Suurballe.is_link_disjoint a b);
    Alcotest.(check int) "optimal total" 5 (Path.hops a + Path.hops b)
  | None -> Alcotest.fail "pair expected"

let test_suurballe_no_pair () =
  let line = Builders.line ~nodes:3 ~capacity:1 in
  Alcotest.(check bool) "bridge graph has no pair" true
    (Suurballe.disjoint_pair line ~src:0 ~dst:2 = None);
  check_invalid "src = dst" (fun () ->
      ignore (Suurballe.disjoint_pair line ~src:1 ~dst:1));
  check_invalid "negative weight" (fun () ->
      ignore
        (Suurballe.disjoint_pair ~weight:(fun _ -> -1.) (k4 ()) ~src:0 ~dst:1))

let test_suurballe_nsfnet () =
  Alcotest.(check bool) "backbone survives single-link failures" true
    (Suurballe.edge_connectivity_at_least_two (Nsfnet.graph ()))

(* brute-force optimum over all link-disjoint path pairs *)
let brute_force_pair g ~src ~dst =
  let all = Enumerate.simple_paths g ~src ~dst in
  let best = ref None in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Suurballe.is_link_disjoint a b then begin
            let total = Path.hops a + Path.hops b in
            match !best with
            | Some t when t <= total -> ()
            | _ -> best := Some total
          end)
        all)
    all;
  !best

let graph_gen_small =
  QCheck2.Gen.(
    let* n = int_range 3 6 in
    let all =
      List.concat_map
        (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1)))
        (List.init n (fun i -> i))
    in
    let spanning = List.init (n - 1) (fun i -> (i, i + 1)) in
    let* extra = list_size (int_range 0 5) (oneofl all) in
    return (n, List.sort_uniq compare (spanning @ extra)))

let prop_suurballe_optimal =
  QCheck2.Test.make ~count:60
    ~name:"suurballe matches brute-force optimal disjoint total"
    graph_gen_small
    (fun (n, edges) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let brute = brute_force_pair g ~src:0 ~dst:(n - 1) in
      match Suurballe.disjoint_pair g ~src:0 ~dst:(n - 1) with
      | None -> brute = None
      | Some (a, b) -> (
        Suurballe.is_link_disjoint a b
        && Path.src a = 0
        && Path.dst b = n - 1
        &&
        match brute with
        | Some t -> Path.hops a + Path.hops b = t
        | None -> false))

(* the weighted variant: pseudo-random small-integer link weights (so
   float sums stay exact) on graphs up to 7 nodes, brute-forced over
   weighted totals rather than hops *)
let graph_gen_weighted =
  QCheck2.Gen.(
    let* n = int_range 3 7 in
    let all =
      List.concat_map
        (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1)))
        (List.init n (fun i -> i))
    in
    let spanning = List.init (n - 1) (fun i -> (i, i + 1)) in
    let* extra = list_size (int_range 0 6) (oneofl all) in
    let* wseed = int_range 0 999 in
    return (n, List.sort_uniq compare (spanning @ extra), wseed))

let weight_of ~wseed (l : Link.t) =
  float_of_int (1 + (((l.Link.src * 7) + (l.Link.dst * 13) + wseed) mod 9))

let path_cost g ~wseed p =
  let links = Graph.links g in
  List.fold_left
    (fun acc id -> acc +. weight_of ~wseed links.(id))
    0. (Path.link_ids p)

let brute_force_weighted g ~wseed ~src ~dst =
  let all = Enumerate.simple_paths g ~src ~dst in
  let best = ref None in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Suurballe.is_link_disjoint a b then begin
            let total = path_cost g ~wseed a +. path_cost g ~wseed b in
            match !best with
            | Some t when t <= total -> ()
            | _ -> best := Some total
          end)
        all)
    all;
  !best

let prop_suurballe_weighted_optimal =
  QCheck2.Test.make ~count:60
    ~name:"suurballe (weighted) matches brute-force optimal disjoint total"
    graph_gen_weighted
    (fun (n, edges, wseed) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let weight = weight_of ~wseed in
      let brute = brute_force_weighted g ~wseed ~src:0 ~dst:(n - 1) in
      match Suurballe.disjoint_pair ~weight g ~src:0 ~dst:(n - 1) with
      | None -> brute = None
      | Some (a, b) -> (
        Suurballe.is_link_disjoint a b
        && Path.src a = 0
        && Path.dst b = n - 1
        &&
        match brute with
        | Some t -> path_cost g ~wseed a +. path_cost g ~wseed b = t
        | None -> false))

(* ------------------------------------------------------------------ *)
(* Route_table *)

let test_route_table_basics () =
  let g = k4 () in
  let t = Route_table.build g in
  Alcotest.(check int) "default h" 3 (Route_table.h t);
  let p = Route_table.primary t ~src:0 ~dst:3 in
  Alcotest.(check int) "primary is direct" 1 (Path.hops p);
  let alts = Route_table.alternates t ~src:0 ~dst:3 in
  Alcotest.(check int) "four alternates" 4 (List.length alts);
  Alcotest.(check bool) "primary excluded" true
    (not (List.exists (Path.equal p) alts));
  Alcotest.(check (list int)) "attempt order by length" [ 2; 2; 3; 3 ]
    (List.map Path.hops alts);
  Alcotest.(check bool) "has_route" true (Route_table.has_route t ~src:1 ~dst:2)

let test_route_table_h_cap () =
  let g = k4 () in
  let t = Route_table.build ~h:2 g in
  Alcotest.(check (list int)) "3-hop alternates dropped" [ 2; 2 ]
    (List.map Path.hops (Route_table.alternates t ~src:0 ~dst:3));
  Alcotest.(check int) "max_alternate_hops" 2 (Route_table.max_alternate_hops t);
  check_invalid "h < 1" (fun () -> ignore (Route_table.build ~h:0 g))

let test_route_table_primary_longer_than_h () =
  (* ring of 6 with h=1: far pairs have a primary but no alternates *)
  let g = Builders.ring ~nodes:6 ~capacity:1 in
  let t = Route_table.build ~h:1 g in
  let p = Route_table.primary t ~src:0 ~dst:3 in
  Alcotest.(check int) "primary 3 hops" 3 (Path.hops p);
  Alcotest.(check int) "no alternates at h=1" 0
    (List.length (Route_table.alternates t ~src:0 ~dst:3));
  Alcotest.(check bool) "all_paths includes primary" true
    (List.exists (Path.equal p) (Route_table.all_paths t ~src:0 ~dst:3))

let test_route_table_custom_primary () =
  let g = k4 () in
  let detour ~src ~dst =
    (* deliberately 2-hop primaries via the smallest third node *)
    let via = List.find (fun v -> v <> src && v <> dst) [ 0; 1; 2; 3 ] in
    Some (Path.make g [ src; via; dst ])
  in
  let t = Route_table.build ~primary:detour g in
  let p = Route_table.primary t ~src:2 ~dst:3 in
  Alcotest.(check int) "custom primary 2 hops" 2 (Path.hops p);
  let alts = Route_table.alternates t ~src:2 ~dst:3 in
  Alcotest.(check bool) "direct path among alternates now" true
    (List.exists (fun q -> Path.hops q = 1) alts);
  Alcotest.(check bool) "custom primary excluded" true
    (not (List.exists (Path.equal p) alts))

let test_route_table_disconnected () =
  let g = Graph.of_edges ~nodes:3 ~capacity:1 [ (0, 1) ] in
  let t = Route_table.build g in
  Alcotest.(check bool) "no route" false (Route_table.has_route t ~src:0 ~dst:2);
  check_invalid "primary of unrouted pair" (fun () ->
      ignore (Route_table.primary t ~src:0 ~dst:2));
  Alcotest.(check int) "no alternates" 0
    (List.length (Route_table.alternates t ~src:0 ~dst:2))

(* entry-wise link-id equality, which [Route_table.equal] deliberately
   ignores: the same primary and alternates, link id for link id *)
let same_link_ids a b =
  let n = Graph.node_count (Route_table.graph a) in
  let ids t ~src ~dst =
    if src = dst || not (Route_table.has_route t ~src ~dst) then []
    else
      List.map Path.link_ids
        (Route_table.primary t ~src ~dst :: Route_table.alternates t ~src ~dst)
  in
  List.for_all
    (fun src ->
      List.for_all (fun dst -> ids a ~src ~dst = ids b ~src ~dst) (List.init n Fun.id))
    (List.init n Fun.id)

(* degenerate topologies — a single node, single edges, double hops,
   isolated nodes — with the number of ordered pairs each should route *)
let degenerate_fixtures () =
  let link id src dst = Link.make ~id ~src ~dst ~capacity:1 in
  [ ("single node", Graph.create ~nodes:1 [], 0);
    ("single directed edge", Graph.create ~nodes:2 [ link 0 0 1 ], 1);
    ("bidirectional edge", Graph.of_edges ~nodes:2 ~capacity:1 [ (0, 1) ], 2);
    ("double hop", Graph.create ~nodes:3 [ link 0 0 1; link 1 1 2 ], 3);
    ( "double bidirectional hop",
      Graph.of_edges ~nodes:3 ~capacity:1 [ (0, 1); (1, 2) ],
      6 );
    ("isolated nodes", Graph.of_edges ~nodes:5 ~capacity:1 [ (1, 3) ], 2) ]

let test_route_table_degenerate () =
  List.iter
    (fun (name, g, routed) ->
      List.iter
        (fun h ->
          let label =
            Printf.sprintf "%s, h %s" name
              (Option.fold ~none:"default" ~some:string_of_int h)
          in
          let reference = Route_table.build_reference ?h g in
          let t = Route_table.build ?h g in
          Alcotest.(check bool)
            (Printf.sprintf "%s: build = build_reference" label)
            true
            (Route_table.equal reference t && same_link_ids reference t);
          let n = Graph.node_count g in
          let count = ref 0 in
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              if src <> dst && Route_table.has_route reference ~src ~dst then
                incr count
            done
          done;
          Alcotest.(check int) (label ^ ": routed pairs") routed !count)
        [ None; Some 1; Some 3 ])
    (degenerate_fixtures ())

let test_route_table_stats () =
  let g = Nsfnet.graph () in
  let t = Route_table.build g in
  let mn = ref 0 and mx = ref 0 in
  let avg = Route_table.alternate_count_stats t ~min:mn ~max:mx in
  Alcotest.(check int) "min 5 (paper)" 5 !mn;
  Alcotest.(check int) "max 15 (paper)" 15 !mx;
  Alcotest.(check bool) "avg near paper's ~9" true (avg > 7.5 && avg < 9.5)

let test_route_table_protected () =
  let g = k4 () in
  let t = Route_table.protected g in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then begin
            let p = Route_table.primary t ~src ~dst in
            let alts = Route_table.alternate_array t ~src ~dst in
            Alcotest.(check int) "one protection alternate" 1
              (Array.length alts);
            Alcotest.(check bool) "mate is link-disjoint" true
              (Suurballe.is_link_disjoint p alts.(0));
            Alcotest.(check bool) "primary no longer than mate" true
              (Path.hops p <= Path.hops alts.(0))
          end)
        [ 0; 1; 2; 3 ])
    [ 0; 1; 2; 3 ];
  (* a bridge graph still routes, just without protection *)
  let line = Builders.line ~nodes:3 ~capacity:1 in
  let t = Route_table.protected line in
  Alcotest.(check bool) "bridge pair still routed" true
    (Route_table.has_route t ~src:0 ~dst:2);
  Alcotest.(check int) "but has no protection mate" 0
    (Array.length (Route_table.alternate_array t ~src:0 ~dst:2))

let prop_protected_table =
  QCheck2.Test.make ~count:60
    ~name:"protected table: one link-disjoint mate exactly when one exists"
    graph_gen_small
    (fun (n, edges) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let t = Route_table.protected g in
      let nodes = List.init n (fun i -> i) in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              src = dst
              || (not (Route_table.has_route t ~src ~dst))
              ||
              let p = Route_table.primary t ~src ~dst in
              let alts = Route_table.alternate_array t ~src ~dst in
              match Suurballe.disjoint_pair g ~src ~dst with
              | Some (a, b) ->
                Array.length alts = 1
                && Path.equal p a
                && Path.equal alts.(0) b
              | None -> Array.length alts = 0)
            nodes)
        nodes)

(* ------------------------------------------------------------------ *)
(* properties *)

let graph_gen =
  QCheck2.Gen.(
    let* n = int_range 3 6 in
    let all =
      List.concat_map
        (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1)))
        (List.init n (fun i -> i))
    in
    let spanning = List.init (n - 1) (fun i -> (i, i + 1)) in
    let* extra = list_size (int_range 0 5) (oneofl all) in
    return (n, List.sort_uniq compare (spanning @ extra)))

let prop_enumerated_paths_valid =
  QCheck2.Test.make ~count:80 ~name:"enumerated paths are valid and distinct"
    graph_gen (fun (n, edges) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let paths = Enumerate.simple_paths g ~src:0 ~dst:(n - 1) in
      let all_valid =
        List.for_all
          (fun p ->
            Path.src p = 0
            && Path.dst p = n - 1
            && List.length (List.sort_uniq compare (Path.nodes p))
               = List.length (Path.nodes p))
          paths
      in
      let distinct =
        List.length (List.sort_uniq compare (List.map Path.nodes paths))
        = List.length paths
      in
      all_valid && distinct)

let prop_yen_prefix_of_enumeration =
  QCheck2.Test.make ~count:60
    ~name:"yen (hop metric) = shortest prefix of full enumeration" graph_gen
    (fun (n, edges) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let all = Enumerate.simple_paths g ~src:0 ~dst:(n - 1) in
      let k = min 5 (List.length all) in
      if k = 0 then true
      else
        let yen = Yen.k_shortest g ~src:0 ~dst:(n - 1) ~k in
        List.map Path.nodes yen
        = List.map Path.nodes (List.filteri (fun i _ -> i < k) all))

(* the precomputed alternate arrays must match the List.filter semantics
   they replaced: candidates minus the table primary, in attempt order *)
let prop_alternate_array_equiv =
  QCheck2.Test.make ~count:60
    ~name:"alternate_array = primary-excluded all_paths (filter semantics)"
    QCheck2.Gen.(pair graph_gen (int_range 1 4))
    (fun ((n, edges), h) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let t = Route_table.build ~h g in
      let nodes = List.init n (fun i -> i) in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              src = dst
              || (not (Route_table.has_route t ~src ~dst))
              ||
              let p = Route_table.primary t ~src ~dst in
              let arr =
                Array.to_list (Route_table.alternate_array t ~src ~dst)
              in
              let reference =
                List.filter
                  (fun q -> not (Path.equal q p))
                  (Route_table.all_paths t ~src ~dst)
              in
              List.map Path.nodes arr = List.map Path.nodes reference
              && List.map Path.nodes
                   (Route_table.alternates_excluding t ~src ~dst p)
                 = List.map Path.nodes reference
              &&
              (* attempt order is by increasing hop count *)
              let hs = List.map Path.hops arr in
              List.sort compare hs = hs)
            nodes)
        nodes)

let test_alternate_attempt_order_golden () =
  let g = k4 () in
  let t = Route_table.build g in
  Alcotest.(check (list (list int)))
    "K4 0->3: two 2-hop alternates then two 3-hop, lexicographic within"
    [ [ 0; 1; 3 ]; [ 0; 2; 3 ]; [ 0; 1; 2; 3 ]; [ 0; 2; 1; 3 ] ]
    (List.map Path.nodes
       (Array.to_list (Route_table.alternate_array t ~src:0 ~dst:3)));
  Alcotest.(check (list (list int)))
    "alternates_excluding the primary agrees with the array"
    (List.map Path.nodes
       (Array.to_list (Route_table.alternate_array t ~src:0 ~dst:3)))
    (List.map Path.nodes
       (Route_table.alternates_excluding t ~src:0 ~dst:3
          (Route_table.primary t ~src:0 ~dst:3)))

(* ------------------------------------------------------------------ *)
(* memoized build and incremental patch *)

(* source 0's row of the memoized build: each destination's candidates
   are the per-pair enumeration, node for node and link id for link id *)
let prop_paths_from_row =
  QCheck2.Test.make ~count:80
    ~name:"paths_from row = per-pair simple_paths"
    QCheck2.Gen.(pair graph_gen (int_range 1 5))
    (fun ((n, edges), h) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let t = Route_table.build ~h g in
      List.for_all
        (fun dst ->
          let row = Route_table.candidates t ~src:0 ~dst in
          let expect =
            if dst = 0 then []
            else Enumerate.simple_paths ~max_hops:h g ~src:0 ~dst
          in
          List.map Path.nodes row = List.map Path.nodes expect
          && List.map Path.link_ids row = List.map Path.link_ids expect)
        (List.init n (fun i -> i)))

(* h runs up to n, so h >= n - 1 (every reachable pair has a candidate)
   is always in range; link ids are compared too, since the build takes
   them from the DFS stack and the reference from Graph.find_link *)
let prop_build_matches_reference =
  QCheck2.Test.make ~count:60
    ~name:"memoized build = per-pair reference build"
    QCheck2.Gen.(
      let* (n, _) as graph = graph_gen in
      let* h = int_range 1 n in
      return (graph, h))
    (fun ((n, edges), h) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let reference = Route_table.build_reference ~h g in
      let t = Route_table.build ~h g in
      Route_table.equal reference t && same_link_ids reference t)

(* random meshes up to 8 nodes, as the issue asks: spanning path plus
   random chords, so removals can disconnect pairs *)
let mesh_gen_8 =
  QCheck2.Gen.(
    let* n = int_range 4 8 in
    let all =
      List.concat_map
        (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1)))
        (List.init n (fun i -> i))
    in
    let spanning = List.init (n - 1) (fun i -> (i, i + 1)) in
    let* extra = list_size (int_range 0 8) (oneofl all) in
    let* h = int_range 1 5 in
    let* ops = list_size (int_range 1 3) (int_bound 9999) in
    return (n, List.sort_uniq compare (spanning @ extra), h, ops))

(* derive a concrete change from an op seed against the *current* graph,
   so sequences stay applicable as the graph evolves: a removal takes a
   link of positive capacity, an addition a pair without one, which
   revives a removed link *)
let change_of_seed g seed =
  let live =
    Array.to_list (Graph.links g)
    |> List.filter (fun (l : Link.t) -> l.Link.capacity > 0)
  in
  let n = Graph.node_count g in
  let has_live src dst =
    match Graph.find_link g ~src ~dst with
    | Some l -> l.Link.capacity > 0
    | None -> false
  in
  match seed mod 3 with
  | 0 when live <> [] ->
    let l = List.nth live (seed / 3 mod List.length live) in
    Some (Route_table.Remove_link { src = l.Link.src; dst = l.Link.dst })
  | 1 ->
    let missing = ref [] in
    for src = n - 1 downto 0 do
      for dst = n - 1 downto 0 do
        if src <> dst && not (has_live src dst) then
          missing := (src, dst) :: !missing
      done
    done;
    (match !missing with
    | [] -> None
    | l ->
      let src, dst = List.nth l (seed / 3 mod List.length l) in
      Some (Route_table.Add_link { src; dst; capacity = 1 + (seed mod 7) }))
  | _ -> None

let prop_patch_equals_rebuild =
  QCheck2.Test.make ~count:80
    ~name:"incremental patch = from-scratch rebuild (random <=8-node meshes)"
    mesh_gen_8
    (fun (n, edges, h, ops) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let t = ref (Route_table.build ~h g) in
      let ok = ref true in
      List.iter
        (fun seed ->
          match change_of_seed (Route_table.graph !t) seed with
          | None -> ()
          | Some change ->
            let patched, recomputed = Route_table.patch !t [ change ] in
            let rebuilt = Route_table.build ~h (Route_table.graph patched) in
            if not (Route_table.equal patched rebuilt) then ok := false;
            if recomputed < 0 || recomputed > n * (n - 1) then ok := false;
            t := patched)
        ops;
      !ok)

(* the ordered pairs whose primary or candidates differ, as node
   sequences, between two tables over the same nodes *)
let changed_pairs a b =
  let n = Graph.node_count (Route_table.graph a) in
  let routes t ~src ~dst =
    ( (if Route_table.has_route t ~src ~dst then
         Some (Path.nodes (Route_table.primary t ~src ~dst))
       else None),
      List.map Path.nodes (Route_table.candidates t ~src ~dst) )
  in
  let changed = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && routes a ~src ~dst <> routes b ~src ~dst then
        incr changed
    done
  done;
  !changed

(* what [patch]'s count means: a removal counts exactly the pairs it
   changes, an addition a superset of them *)
let prop_patch_count =
  QCheck2.Test.make ~count:80
    ~name:"patch count: removal exact, addition a superset (<=8-node meshes)"
    mesh_gen_8
    (fun (n, edges, h, ops) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let t = ref (Route_table.build ~h g) in
      let ok = ref true in
      List.iter
        (fun seed ->
          match change_of_seed (Route_table.graph !t) seed with
          | None -> ()
          | Some change ->
            let patched, counted = Route_table.patch !t [ change ] in
            let changed = changed_pairs !t patched in
            let exact =
              match change with Route_table.Remove_link _ -> true | _ -> false
            in
            if counted < changed || (exact && counted <> changed) then
              ok := false;
            t := patched)
        ops;
      !ok)

let test_patch_nsfnet_golden () =
  (* one link failure on NSFNet at the paper's H: the canonical
     incremental-recompile scenario the failure layer feeds *)
  let g = Nsfnet.graph () in
  let t = Route_table.build g in
  let l = Graph.link g 0 in
  let patched, recomputed =
    Route_table.patch t
      [ Route_table.Remove_link { src = l.Link.src; dst = l.Link.dst } ]
  in
  let g' = Graph.without_links g [ (l.Link.src, l.Link.dst) ] in
  Alcotest.(check bool) "patched table equals rebuild" true
    (Route_table.equal patched (Route_table.build g'));
  (* at the unrestricted H = 11, 85 of the 132 ordered pairs hold some
     candidate through link 0 — the rest carry over untouched *)
  Alcotest.(check int) "pairs recomputed (of 132)" 85 recomputed;
  (* repairing the link restores the original table; every ordered pair
     passes the addition's distance bound at H = 11 *)
  let restored, readded =
    Route_table.patch patched
      [ Route_table.Add_link
          { src = l.Link.src; dst = l.Link.dst; capacity = l.Link.capacity } ]
  in
  Alcotest.(check bool) "add-back restores the original" true
    (Route_table.equal restored t);
  Alcotest.(check int) "pairs counted on add-back (of 132)" 132 readded

(* a removed link stays at its id with capacity 0: on no adjacency
   list, so on no path of any table or walk, and an add of its pair
   revives the id *)
let test_patch_tombstone () =
  let g = k4 () in
  let t = Route_table.build ~h:3 g in
  let l = Graph.find_link_exn g ~src:0 ~dst:1 in
  let removed, _ =
    Route_table.patch t [ Route_table.Remove_link { src = 0; dst = 1 } ]
  in
  let g' = Route_table.graph removed in
  Alcotest.(check int) "no id removed" (Graph.link_count g)
    (Graph.link_count g');
  let dead = Graph.find_link_exn g' ~src:0 ~dst:1 in
  Alcotest.(check (pair int int)) "same id, capacity 0" (l.Link.id, 0)
    (dead.Link.id, dead.Link.capacity);
  Alcotest.(check bool) "off the adjacency lists" false
    (List.memq dead (Graph.out_links g' 0) || List.memq dead (Graph.in_links g' 1));
  let crosses (p : Path.t) = Array.mem dead.Link.id p.Path.link_ids in
  List.iter
    (fun (name, table) ->
      for src = 0 to 3 do
        for dst = 0 to 3 do
          if src <> dst then
            List.iter
              (fun p ->
                if crosses p then
                  Alcotest.failf "%s: %d->%d crosses the removed link" name
                    src dst)
              (Route_table.primary table ~src ~dst
              :: Route_table.all_paths table ~src ~dst)
        done
      done)
    [ ("patched", removed);
      ("reference", Route_table.build_reference ~h:3 g');
      ("protected", Route_table.protected g') ];
  Alcotest.(check (option int)) "bfs detours" (Some 2)
    (Option.map Path.hops (Bfs.min_hop_path g' ~src:0 ~dst:1));
  let dv = Distance_vector.compute g' in
  Alcotest.(check bool) "dalfar detours" false
    (List.exists crosses
       (fst (Dalfar.find_paths g' dv ~src:0 ~dst:1 ~max_hops:3)));
  check_invalid "remove the removed link" (fun () ->
      ignore
        (Route_table.patch removed
           [ Route_table.Remove_link { src = 0; dst = 1 } ]));
  let restored, _ =
    Route_table.patch removed
      [ Route_table.Add_link { src = 0; dst = 1; capacity = 7 } ]
  in
  let back = Graph.find_link_exn (Route_table.graph restored) ~src:0 ~dst:1 in
  Alcotest.(check (pair int int)) "revived under its id" (l.Link.id, 7)
    (back.Link.id, back.Link.capacity);
  Alcotest.(check bool) "routes restored" true (Route_table.equal restored t)

let test_patch_validation () =
  let g = k4 () in
  let t = Route_table.build g in
  check_invalid "remove absent link" (fun () ->
      ignore (Route_table.patch t [ Route_table.Remove_link { src = 0; dst = 0 } ]));
  check_invalid "add existing link" (fun () ->
      ignore
        (Route_table.patch t
           [ Route_table.Add_link { src = 0; dst = 1; capacity = 1 } ]));
  check_invalid "custom-primary tables are not patchable" (fun () ->
      let custom =
        Route_table.build ~primary:(fun ~src ~dst -> Bfs.min_hop_path g ~src ~dst) g
      in
      ignore
        (Route_table.patch custom
           [ Route_table.Remove_link { src = 0; dst = 1 } ]));
  check_invalid "protected tables are not patchable" (fun () ->
      ignore
        (Route_table.patch (Route_table.protected g)
           [ Route_table.Remove_link { src = 0; dst = 1 } ]))

(* every pair's primary and alternates as node sequences, then the
   Theorem-1 levels under the topology's gravity matrix, hashed: pins a
   whole table, walked primaries and multi-slot rows included, at a size
   the qcheck meshes never reach *)
let table_digest routes topo =
  let n = Graph.node_count (Route_table.graph routes) in
  let b = Buffer.create 65536 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        Buffer.add_string b (Printf.sprintf "%d>%d:" src dst);
        if Route_table.has_route routes ~src ~dst then
          List.iter
            (fun p ->
              Buffer.add_char b ' ';
              Buffer.add_string b (Path.to_string p))
            (Route_table.primary routes ~src ~dst
            :: Route_table.alternates routes ~src ~dst);
        Buffer.add_char b '\n'
      end
    done
  done;
  let levels =
    Arnet_core.Protection.levels routes
      (Arnet_ingest.Mesh.gravity topo)
      ~h:(Route_table.h routes)
  in
  Array.iter (fun r -> Buffer.add_string b (Printf.sprintf "%d " r)) levels;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_frozen_table_digest () =
  let module Mesh = Arnet_ingest.Mesh in
  let module Topo = Arnet_ingest.Topo in
  let mesh = Mesh.random_mesh ~seed:0 ~nodes:120 () in
  let g = mesh.Topo.graph in
  let t = Route_table.build ~h:6 g in
  Alcotest.(check string) "120-node mesh, H = 6"
    "f4abb7839fb5f3efa626bc01f29fc365" (table_digest t mesh);
  let nsfnet = Topo.make (Nsfnet.graph ()) in
  Alcotest.(check string) "NSFNet, H = 11"
    "dcf4a1f34c3ad6f3cd3916aaf959bfd9"
    (table_digest (Route_table.build ~h:11 nsfnet.Topo.graph) nsfnet);
  (* the median link by primary load, removed and then added back *)
  let loads =
    Arnet_traffic.Loads.primary_link_loads t (Mesh.gravity mesh)
  in
  let ids = Array.init (Graph.link_count g) Fun.id in
  Array.stable_sort (fun a b -> compare loads.(a) loads.(b)) ids;
  let l = Graph.link g ids.(Array.length ids / 2) in
  let removed, _ =
    Route_table.patch t
      [ Route_table.Remove_link { src = l.Link.src; dst = l.Link.dst } ]
  in
  let without = Topo.make (Route_table.graph removed) in
  (* the removed link stays at its id with capacity 0, and so at level
     0; no id above it moves *)
  Alcotest.(check string) "after removing the median-loaded link"
    "ef166c0d383772c37179d16c1da0c0fb" (table_digest removed without);
  let restored, _ =
    Route_table.patch removed
      [ Route_table.Add_link
          { src = l.Link.src; dst = l.Link.dst; capacity = l.Link.capacity } ]
  in
  (* the add revives the link under its id: the round trip restores the
     unpatched table link id for link id *)
  let back = Topo.make (Route_table.graph restored) in
  Alcotest.(check string) "after adding it back"
    "f4abb7839fb5f3efa626bc01f29fc365" (table_digest restored back)

let test_equal_ignores_link_ids () =
  (* drop one link and append it again: it comes back under a new id,
     and every id above the old one shifts down *)
  let g = Nsfnet.graph () in
  let l = Graph.link g 3 in
  let without = Graph.without_links g [ (l.Link.src, l.Link.dst) ] in
  let readded =
    Graph.create ~nodes:(Graph.node_count g)
      (Array.to_list (Graph.links without)
      @ [ Link.make ~id:(Graph.link_count without) ~src:l.Link.src
            ~dst:l.Link.dst ~capacity:l.Link.capacity ])
  in
  Alcotest.(check bool) "the link has a new id" true
    ((Graph.find_link_exn readded ~src:l.Link.src ~dst:l.Link.dst).Link.id
    <> l.Link.id);
  Alcotest.(check bool) "same paths, renumbered links: equal" true
    (Route_table.equal (Route_table.build ~h:4 g)
       (Route_table.build ~h:4 readded));
  Alcotest.(check bool) "graphs one link apart: not equal" false
    (Route_table.equal (Route_table.build ~h:4 g)
       (Route_table.build ~h:4 without));
  (* on a 4-ring at H = 1, 0->2 has no candidate and two 2-hop routes:
     the min-hop table walks 0-1-2, the custom one takes 0-3-2; both
     primaries are longer than H *)
  let ring = Builders.ring ~nodes:4 ~capacity:1 in
  let primary ~src ~dst =
    if src = 0 && dst = 2 then Some (Path.make ring [ 0; 3; 2 ])
    else Bfs.min_hop_path ring ~src ~dst
  in
  Alcotest.(check bool) "custom primary past H: not equal" false
    (Route_table.equal (Route_table.build ~h:1 ring)
       (Route_table.build ~h:1 ~primary ring))

(* the link ids of a node sequence, looked up hop by hop *)
let rec found_link_ids g = function
  | a :: (b :: _ as rest) ->
    (Graph.find_link_exn g ~src:a ~dst:b).Link.id :: found_link_ids g rest
  | _ -> []

let prop_bfs_is_shortest =
  QCheck2.Test.make ~count:80 ~name:"bfs path length equals distance"
    graph_gen (fun (n, edges) ->
      let g = Graph.of_edges ~nodes:n ~capacity:1 edges in
      let d = Bfs.distances g ~src:0 in
      List.for_all
        (fun dst ->
          dst = 0
          ||
          match Bfs.min_hop_path g ~src:0 ~dst with
          | Some p ->
            Path.hops p = d.(dst) && Path.link_ids p = found_link_ids g (Path.nodes p)
          | None -> d.(dst) = max_int)
        (List.init n (fun i -> i)))

let () =
  Alcotest.run "paths"
    [ ( "path",
        [ Alcotest.test_case "make" `Quick test_path_make;
          Alcotest.test_case "validation" `Quick test_path_validation;
          Alcotest.test_case "membership" `Quick test_path_mem;
          Alcotest.test_case "ordering" `Quick test_path_ordering ] );
      ( "bfs",
        [ Alcotest.test_case "distances" `Quick test_bfs_distances;
          Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "tie-break" `Quick test_bfs_deterministic_tie_break;
          Alcotest.test_case "min-hop" `Quick test_bfs_min_hop_correct;
          Alcotest.test_case "eccentricity/diameter" `Quick
            test_eccentricity_diameter ] );
      ( "dijkstra",
        [ Alcotest.test_case "unit weights = bfs" `Quick
            test_dijkstra_unit_weights_match_bfs;
          Alcotest.test_case "weighted detour" `Quick
            test_dijkstra_routes_around_expensive_link;
          Alcotest.test_case "validation" `Quick test_dijkstra_validation ] );
      ( "enumerate",
        [ Alcotest.test_case "K4" `Quick test_enumerate_k4;
          Alcotest.test_case "validation" `Quick test_enumerate_validation;
          Alcotest.test_case "nsfnet census" `Quick
            test_enumerate_census_nsfnet ] );
      ( "yen",
        [ Alcotest.test_case "equals enumeration prefix" `Quick
            test_yen_equals_enumeration_on_hop_metric;
          Alcotest.test_case "weighted" `Quick test_yen_weighted;
          Alcotest.test_case "validation and k" `Quick
            test_yen_validation_and_k ] );
      ( "suurballe",
        [ Alcotest.test_case "diamond" `Quick test_suurballe_diamond;
          Alcotest.test_case "trap graph" `Quick test_suurballe_trap;
          Alcotest.test_case "no pair / validation" `Quick
            test_suurballe_no_pair;
          Alcotest.test_case "nsfnet 2-edge-connected" `Quick
            test_suurballe_nsfnet;
          QCheck_alcotest.to_alcotest prop_suurballe_optimal;
          QCheck_alcotest.to_alcotest prop_suurballe_weighted_optimal ] );
      ( "route-table",
        [ Alcotest.test_case "basics" `Quick test_route_table_basics;
          Alcotest.test_case "h cap" `Quick test_route_table_h_cap;
          Alcotest.test_case "primary longer than h" `Quick
            test_route_table_primary_longer_than_h;
          Alcotest.test_case "custom primary" `Quick
            test_route_table_custom_primary;
          Alcotest.test_case "disconnected" `Quick test_route_table_disconnected;
          Alcotest.test_case "degenerate topologies" `Quick
            test_route_table_degenerate;
          Alcotest.test_case "nsfnet stats" `Quick test_route_table_stats;
          Alcotest.test_case "alternate attempt order golden" `Quick
            test_alternate_attempt_order_golden;
          Alcotest.test_case "protected (Suurballe) table" `Quick
            test_route_table_protected;
          Alcotest.test_case "frozen mesh table digest" `Quick
            test_frozen_table_digest;
          Alcotest.test_case "equal ignores link ids, not paths" `Quick
            test_equal_ignores_link_ids;
          QCheck_alcotest.to_alcotest prop_protected_table ] );
      ( "patch",
        [ Alcotest.test_case "nsfnet one-link-failure golden" `Quick
            test_patch_nsfnet_golden;
          Alcotest.test_case "validation" `Quick test_patch_validation;
          Alcotest.test_case "removed links stay as capacity-0 tombstones"
            `Quick test_patch_tombstone;
          QCheck_alcotest.to_alcotest prop_paths_from_row;
          QCheck_alcotest.to_alcotest prop_build_matches_reference;
          QCheck_alcotest.to_alcotest prop_patch_equals_rebuild;
          QCheck_alcotest.to_alcotest prop_patch_count ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_enumerated_paths_valid;
            prop_yen_prefix_of_enumeration;
            prop_alternate_array_equiv;
            prop_bfs_is_shortest ] ) ]
