open Arnet_topology

type entry = {
  primary : Path.t option;
  candidates : Path.t list;
  primary_alternates : Path.t array;
}
(* candidates: all simple paths <= h hops, sorted by length; may or may
   not contain the primary (which can be longer than h).
   primary_alternates: candidates minus the table primary, in attempt
   order — precomputed at build time so the per-call decision never
   filters a list (Controller iterates it index-wise, allocation-free). *)

type kind = Minhop | Custom | Protected
(* Minhop tables (the default build) are the only patchable kind: the
   primary is a pure function of the pair's min-hop path set, so the
   affected-pair analysis of [patch] is exact.  Custom-primary and
   Suurballe-protected tables must be rebuilt from scratch. *)

type t = { graph : Graph.t; h : int; entries : entry array array; kind : kind }

let empty_entry = { primary = None; candidates = []; primary_alternates = [||] }

let mk_entry primary candidates =
  let primary_alternates =
    match primary with
    | None -> [||]
    | Some p ->
      Array.of_list (List.filter (fun q -> not (Path.equal q p)) candidates)
  in
  { primary; candidates; primary_alternates }

(* a min-hop entry from the pair's candidates in (hops, lex) order.  The
   head candidate, when there is one, is the lexicographically smallest
   min-hop path — where [Bfs.greedy_walk] would lead — so it is the
   primary, shared rather than copied; only a pair with no candidate
   within H walks a backward BFS field ([walk ()]). *)
let minhop_entry ~walk = function
  | [] -> mk_entry (walk ()) []
  | head :: rest as candidates ->
    { primary = Some head; candidates; primary_alternates = Array.of_list rest }

let check_h = function
  | Some h when h < 1 -> invalid_arg "Route_table.build: h < 1"
  | _ -> ()

(* the pre-memoization pipeline: one backward BFS and one DFS tree per
   ordered pair.  Kept verbatim as the differential-testing oracle and
   the "sequential full rebuild" baseline of the compile bench. *)
let build_reference ?h ?primary g =
  let n = Graph.node_count g in
  check_h h;
  let h = match h with None -> n - 1 | Some h -> h in
  let kind = match primary with None -> Minhop | Some _ -> Custom in
  let primary_of =
    match primary with
    | Some f -> f
    | None -> fun ~src ~dst -> Bfs.min_hop_path g ~src ~dst
  in
  let entry src dst =
    if src = dst then empty_entry
    else
      let primary = primary_of ~src ~dst in
      let candidates = Enumerate.simple_paths ~max_hops:h g ~src ~dst in
      (match primary, candidates with
      | None, _ :: _ ->
        invalid_arg "Route_table.build: primary policy returned no path \
                     for a connected pair"
      | _ -> ());
      mk_entry primary candidates
  in
  let entries = Array.init n (fun src -> Array.init n (entry src)) in
  { graph = g; h; entries; kind }

let build ?h ?primary g =
  match primary with
  | Some _ -> build_reference ?h ?primary g
  | None ->
    let n = Graph.node_count g in
    check_h h;
    (* one backward BFS per destination, shared by all n sources (the
       reference pipeline repeats it per ordered pair); only pairs with
       no candidate within H walk it *)
    let dist_to = Array.init n (fun dst -> Bfs.distances_to g ~dst) in
    let row src =
      let buckets = Enumerate.paths_from ?max_hops:h g ~src in
      Array.init n (fun dst ->
          if src = dst then empty_entry
          else
            minhop_entry buckets.(dst) ~walk:(fun () ->
                Bfs.greedy_walk g ~dist:dist_to.(dst) ~src ~dst))
    in
    { graph = g;
      h = Option.value h ~default:(n - 1);
      entries = Array.init n row;
      kind = Minhop }

let protected ?weight g =
  let n = Graph.node_count g in
  let entry src dst =
    if src = dst then empty_entry
    else
      match Suurballe.disjoint_pair ?weight g ~src ~dst with
      | Some (p, mate) ->
        { primary = Some p;
          candidates = [ p; mate ];
          primary_alternates = [| mate |] }
      | None -> (
        (* no two link-disjoint paths: protection is impossible, route
           on the min-hop primary alone *)
        match Bfs.min_hop_path g ~src ~dst with
        | None -> empty_entry
        | Some p ->
          { primary = Some p; candidates = [ p ]; primary_alternates = [||] })
  in
  let entries = Array.init n (fun src -> Array.init n (entry src)) in
  { graph = g; h = n - 1; entries; kind = Protected }

let graph t = t.graph
let h t = t.h

let get t src dst =
  let n = Graph.node_count t.graph in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Route_table.get: bad node index";
  t.entries.(src).(dst)

let primary t ~src ~dst =
  match (get t src dst).primary with
  | Some p -> p
  | None -> invalid_arg "Route_table.primary: no route"

let has_route t ~src ~dst = (get t src dst).primary <> None

let alternates_excluding t ~src ~dst p =
  let e = get t src dst in
  match e.primary with
  | Some prim when prim == p || Path.equal prim p ->
    Array.to_list e.primary_alternates
  | _ -> List.filter (fun q -> not (Path.equal q p)) e.candidates

let alternates t ~src ~dst =
  match (get t src dst).primary with
  | None -> []
  | Some _ -> Array.to_list (get t src dst).primary_alternates

let alternate_array t ~src ~dst = (get t src dst).primary_alternates

let all_paths t ~src ~dst =
  let e = get t src dst in
  match e.primary with
  | None -> e.candidates
  | Some p ->
    if List.exists (Path.equal p) e.candidates then e.candidates
    else List.sort Path.compare_by_length (p :: e.candidates)

let max_alternate_hops t =
  let n = Graph.node_count t.graph in
  let best = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        List.iter
          (fun p -> best := max !best (Path.hops p))
          (alternates t ~src ~dst)
    done
  done;
  !best

let alternate_count_stats t ~min:mn ~max:mx =
  let n = Graph.node_count t.graph in
  mn := max_int;
  mx := 0;
  let total = ref 0 and pairs = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && has_route t ~src ~dst then begin
        let c = List.length (alternates t ~src ~dst) in
        incr pairs;
        total := !total + c;
        if c < !mn then mn := c;
        if c > !mx then mx := c
      end
    done
  done;
  if !pairs = 0 then 0. else float_of_int !total /. float_of_int !pairs

(* ------------------------------------------------------------------ *)
(* incremental recompile: rebuild only the ordered pairs a topology
   change can affect.

   The affected-pair analysis is exact because the default primary is
   canonical — the lexicographically-smallest min-hop path, a function
   of the pair's path set alone:

   - removing link k: a pair changes iff its primary or some candidate
     traverses k.  Otherwise the pair's min-hop set still contains its
     old primary (so the lexmin is unchanged) and its <= h candidate set
     loses nothing.
   - adding link u->v: any *new* path for (s, d) traverses u->v, so its
     hop count is at least dist(s, u) + 1 + dist(v, d).  A pair can
     change only when that lower bound fits under max h (hops primary)
     (or the pair was unroutable and both distances are now finite);
     such pairs are recomputed — possibly needlessly, never wrongly.
   - a capacity change affects no pair: routing here is hop-based. *)

type change =
  | Add_link of { src : int; dst : int; capacity : int }
  | Remove_link of { src : int; dst : int }
  | Set_capacity of { src : int; dst : int; capacity : int }

let labels_of g = Array.init (Graph.node_count g) (Graph.label g)

(* relocate a surviving path onto the renumbered graph: node sequence
   unchanged, link ids translated through [id_map] *)
let remap_path id_map (p : Path.t) =
  Path.with_link_ids_unchecked ~nodes:p.Path.nodes
    ~link_ids:(Array.map (fun k -> id_map.(k)) p.Path.link_ids)

let remap_entry id_map e =
  match e.primary with
  | None -> e
  | Some p ->
    mk_entry (Some (remap_path id_map p)) (List.map (remap_path id_map) e.candidates)

(* recompute the affected pairs, grouped by destination so each group
   shares one backward BFS *)
let recompute g' ~h by_dst =
  let groups =
    Hashtbl.fold (fun dst srcs acc -> (dst, srcs) :: acc) by_dst []
    |> List.sort compare
  in
  let one (dst, srcs) =
    let dist = Bfs.distances_to g' ~dst in
    List.map
      (fun src ->
        ( src,
          dst,
          minhop_entry (Enumerate.simple_paths ~max_hops:h g' ~src ~dst)
            ~walk:(fun () -> Bfs.greedy_walk g' ~dist ~src ~dst) ))
      srcs
  in
  List.concat_map one groups

let check_pair_nodes ~n ~op src dst =
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg (Printf.sprintf "Route_table.patch: %s: bad node index" op);
  if src = dst then
    invalid_arg (Printf.sprintf "Route_table.patch: %s: src = dst" op)

let apply_remove t ~src:u ~dst:v =
  let g = t.graph in
  let n = Graph.node_count g in
  check_pair_nodes ~n ~op:"remove" u v;
  let doomed =
    match Graph.find_link g ~src:u ~dst:v with
    | Some l -> l.Link.id
    | None ->
      invalid_arg
        (Printf.sprintf "Route_table.patch: remove: no link %d->%d" u v)
  in
  let g' = Graph.without_links g [ (u, v) ] in
  (* without_links renumbers link ids: translate survivors, -1 marks the
     removed id (never read — pairs that used it are recomputed) *)
  let id_map = Array.make (Graph.link_count g) (-1) in
  Graph.iter_links
    (fun (l : Link.t) ->
      if l.Link.id <> doomed then
        id_map.(l.Link.id) <-
          (Graph.find_link_exn g' ~src:l.Link.src ~dst:l.Link.dst).Link.id)
    g;
  let by_dst = Hashtbl.create 16 in
  let affected = ref 0 in
  let entries' =
    Array.mapi
      (fun src row ->
        Array.mapi
          (fun dst e ->
            if src = dst then e
            else begin
              let uses p = Path.mem_link p doomed in
              let hit =
                (match e.primary with Some p -> uses p | None -> false)
                || List.exists uses e.candidates
              in
              if hit then begin
                incr affected;
                Hashtbl.replace by_dst dst
                  (src :: Option.value ~default:[] (Hashtbl.find_opt by_dst dst));
                empty_entry (* placeholder, overwritten below *)
              end
              else remap_entry id_map e
            end)
          row)
      t.entries
  in
  List.iter
    (fun (src, dst, e) -> entries'.(src).(dst) <- e)
    (recompute g' ~h:t.h by_dst);
  ({ t with graph = g'; entries = entries' }, !affected)

let apply_add t ~src:u ~dst:v ~capacity =
  let g = t.graph in
  let n = Graph.node_count g in
  check_pair_nodes ~n ~op:"add" u v;
  if Graph.find_link g ~src:u ~dst:v <> None then
    invalid_arg
      (Printf.sprintf "Route_table.patch: add: link %d->%d already exists" u v);
  let m = Graph.link_count g in
  let links =
    Array.to_list (Graph.links g)
    @ [ Link.make ~id:m ~src:u ~dst:v ~capacity ]
  in
  (* appending keeps every existing link id stable, so untouched entries
     carry over without remapping *)
  let g' = Graph.create ~labels:(labels_of g) ~nodes:n links in
  let du = Bfs.distances_to g' ~dst:u in
  let dv = Bfs.distances g' ~src:v in
  let by_dst = Hashtbl.create 16 in
  let affected = ref 0 in
  let entries' = Array.map Array.copy t.entries in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && du.(src) <> max_int && dv.(dst) <> max_int then begin
        let hit =
          match t.entries.(src).(dst).primary with
          | None -> true (* newly routable: every new path uses u->v *)
          | Some p -> du.(src) + 1 + dv.(dst) <= max t.h (Path.hops p)
        in
        if hit then begin
          incr affected;
          Hashtbl.replace by_dst dst
            (src :: Option.value ~default:[] (Hashtbl.find_opt by_dst dst))
        end
      end
    done
  done;
  List.iter
    (fun (src, dst, e) -> entries'.(src).(dst) <- e)
    (recompute g' ~h:t.h by_dst);
  ({ t with graph = g'; entries = entries' }, !affected)

let apply_capacity t ~src ~dst ~capacity =
  let n = Graph.node_count t.graph in
  check_pair_nodes ~n ~op:"capacity" src dst;
  let g' = Graph.with_capacities t.graph [ (src, dst, capacity) ] in
  ({ t with graph = g' }, 0)

let patch t changes =
  (match t.kind with
  | Minhop -> ()
  | Custom ->
    invalid_arg
      "Route_table.patch: table was built with a custom primary policy; \
       rebuild it instead"
  | Protected ->
    invalid_arg
      "Route_table.patch: protected tables are not patchable; rebuild \
       with Route_table.protected");
  List.fold_left
    (fun (t, total) change ->
      let t, changed =
        match change with
        | Add_link { src; dst; capacity } ->
          apply_add t ~src ~dst ~capacity
        | Remove_link { src; dst } -> apply_remove t ~src ~dst
        | Set_capacity { src; dst; capacity } ->
          apply_capacity t ~src ~dst ~capacity
      in
      (t, total + changed))
    (t, 0) changes

let equal a b =
  let opt_equal p q =
    match (p, q) with
    | None, None -> true
    | Some p, Some q -> Path.equal p q
    | _ -> false
  in
  let array_equal eq x y =
    Array.length x = Array.length y && Array.for_all2 eq x y
  in
  let entry_equal (ea : entry) (eb : entry) =
    opt_equal ea.primary eb.primary
    && List.equal Path.equal ea.candidates eb.candidates
    && array_equal Path.equal ea.primary_alternates eb.primary_alternates
  in
  a.h = b.h
  && Graph.node_count a.graph = Graph.node_count b.graph
  && array_equal (array_equal entry_equal) a.entries b.entries

let pp ppf t =
  let n = Graph.node_count t.graph in
  Format.fprintf ppf "@[<v>route table (H=%d)" t.h;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && has_route t ~src ~dst then
        Format.fprintf ppf "@,  %d->%d: primary %a, %d alternates" src dst
          Path.pp (primary t ~src ~dst)
          (List.length (alternates t ~src ~dst))
    done
  done;
  Format.fprintf ppf "@]"
