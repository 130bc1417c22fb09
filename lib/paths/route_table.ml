open Arnet_topology

(* Row [s] holds every path the table stores from [s], their link ids
   end to end in one exact-size array: path [j] is
   [links.(starts.(j)) .. links.(starts.(j + 1) - 1)], and its nodes are
   [s] followed by each link's destination.  The candidates of [(s, d)]
   are paths [first.(d) .. first.(d + 1) - 1], in attempt order;
   [prim.(d)] is the index of the pair's primary, or -1 when it has no
   route.  A primary that is not a candidate (a min-hop walk longer than
   [h], or a custom policy's choice) is stored after the last candidate
   range, in ascending destination order, so tables holding the same
   paths have the same layout.  Rows are never mutated once built. *)
type row = {
  links : int array;
  starts : int array;
  first : int array;
  prim : int array;
}

type kind = Minhop | Custom | Protected
(* Minhop tables (the default build) are the only patchable kind:
   [patch] builds the changed graph's table with the default primary.
   Custom-primary and Suurballe-protected tables must be rebuilt the
   way they were built. *)

type t = {
  graph : Graph.t;
  h : int;
  rows : row array;
  kind : kind;
  link_dst : int array;  (* destination node of each link id *)
}

let link_dsts g = Array.map (fun (l : Link.t) -> l.Link.dst) (Graph.links g)
let hops_of r j = r.starts.(j + 1) - r.starts.(j)
let is_candidate r d j = r.first.(d) <= j && j < r.first.(d + 1)

(* the position of [p] in [candidates], or -1 *)
let rec index_of p i = function
  | [] -> -1
  | q :: rest -> if q == p || Path.equal q p then i else index_of p (i + 1) rest

(* The packing step of the per-pair builds ([build_reference] and
   [protected]): the row whose pair [d] has primary and candidates
   [fresh.(d)]. *)
let pack fresh =
  let n = Array.length fresh in
  let first = Array.make (n + 1) 0 and prim = Array.make n (-1) in
  let paths = ref 0 and words = ref 0 in
  let add hops =
    incr paths;
    words := !words + hops
  in
  for d = 0 to n - 1 do
    first.(d) <- !paths;
    List.iter (fun p -> add (Path.hops p)) (snd fresh.(d))
  done;
  first.(n) <- !paths;
  for d = 0 to n - 1 do
    match fresh.(d) with
    | Some p, candidates ->
      let i = index_of p 0 candidates in
      if i >= 0 then prim.(d) <- first.(d) + i
      else begin
        prim.(d) <- !paths;
        add (Path.hops p)
      end
    | None, _ -> ()
  done;
  let links = Array.make !words 0 and starts = Array.make (!paths + 1) 0 in
  let next = ref 0 in
  let put_path (p : Path.t) =
    Array.blit p.Path.link_ids 0 links starts.(!next) (Path.hops p);
    starts.(!next + 1) <- starts.(!next) + Path.hops p;
    incr next
  in
  Array.iter (fun (_, candidates) -> List.iter put_path candidates) fresh;
  for d = 0 to n - 1 do
    if prim.(d) >= first.(n) then Option.iter put_path (fst fresh.(d))
  done;
  { links; starts; first; prim }

let make ~h ~kind g rows = { graph = g; h; rows; kind; link_dst = link_dsts g }

let check_h = function
  | Some h when h < 1 -> invalid_arg "Route_table.build: h < 1"
  | _ -> ()

(* the pre-memoization pipeline: one backward BFS and one DFS tree per
   ordered pair, packed row by row.  Kept as the differential-testing
   oracle of [build]. *)
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
  let pair src dst =
    if src = dst then (None, [])
    else
      let primary = primary_of ~src ~dst in
      let candidates = Enumerate.simple_paths ~max_hops:h g ~src ~dst in
      (match primary, candidates with
      | None, _ :: _ ->
        invalid_arg "Route_table.build: primary policy returned no path \
                     for a connected pair"
      | _ -> ());
      (primary, candidates)
  in
  make ~h ~kind g (Array.init n (fun src -> pack (Array.init n (pair src))))

(* ------------------------------------------------------------------ *)
(* the memoized min-hop build *)

(* out-links as flat arrays, built once per graph: node [v]'s links are
   entries [out_first.(v) .. out_first.(v + 1) - 1] of [out_dst] (their
   destinations) and [out_id] (their ids), ascending by destination *)
type adjacency = {
  out_first : int array;
  out_dst : int array;
  out_id : int array;
}

let adjacency g =
  let n = Graph.node_count g in
  let out_first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    out_first.(v + 1) <- out_first.(v) + Graph.degree_out g v
  done;
  let out_dst = Array.make out_first.(n) 0
  and out_id = Array.make out_first.(n) 0 in
  for v = 0 to n - 1 do
    List.iteri
      (fun i (l : Link.t) ->
        out_dst.(out_first.(v) + i) <- l.Link.dst;
        out_id.(out_first.(v) + i) <- l.Link.id)
      (Graph.out_links g v)
  done;
  { out_first; out_dst; out_id }

(* One DFS tree per source, walked twice: [count] tallies the paths of
   each (destination, hops) slot, then [write] copies every prefix's link
   ids into its slot.  Every visited prefix is a simple path to its last
   node, and pre-order over ascending out-links visits each slot's paths
   in lexicographic order, so the slots laid out by hops give the
   (hops, lex) order of [Path.compare_by_length] with no list and no
   sort. *)
type walker = {
  adj : adjacency;
  cap : int;  (* hop bound: min h (n - 1) *)
  on_path : bool array;
  stack : int array;  (* link ids of the current prefix *)
  slots : int array;
      (* slot (d, k) at [d * (cap + 1) + k]: the count of d's k-hop
         paths, then the offset [write] copies the next one to *)
}

let rec count w v depth =
  if depth > 0 then begin
    let s = (v * (w.cap + 1)) + depth in
    w.slots.(s) <- w.slots.(s) + 1
  end;
  if depth < w.cap then begin
    w.on_path.(v) <- true;
    for e = w.adj.out_first.(v) to w.adj.out_first.(v + 1) - 1 do
      let x = w.adj.out_dst.(e) in
      if not w.on_path.(x) then count w x (depth + 1)
    done;
    w.on_path.(v) <- false
  end

let rec write w links v depth =
  if depth > 0 then begin
    let s = (v * (w.cap + 1)) + depth in
    let at = w.slots.(s) in
    for i = 0 to depth - 1 do
      links.(at + i) <- w.stack.(i)
    done;
    w.slots.(s) <- at + depth
  end;
  if depth < w.cap then begin
    w.on_path.(v) <- true;
    for e = w.adj.out_first.(v) to w.adj.out_first.(v + 1) - 1 do
      let x = w.adj.out_dst.(e) in
      if not w.on_path.(x) then begin
        w.stack.(depth) <- w.adj.out_id.(e);
        write w links x (depth + 1)
      end
    done;
    w.on_path.(v) <- false
  end

(* [Bfs.min_hop_path]'s walk over the flat out-links: from [src], step
   to the smallest-indexed successor one hop closer, writing each link
   id *)
let walk adj ~dist links ~at src hops =
  let v = ref src in
  for i = 0 to hops - 1 do
    let e = ref adj.out_first.(!v) in
    while dist.(adj.out_dst.(!e)) <> hops - i - 1 do
      incr e
    done;
    links.(at + i) <- adj.out_id.(!e);
    v := adj.out_dst.(!e)
  done

(* A pair's primary is its head candidate: with any candidate within
   the bound, every min-hop path is one, and the head is the
   lexicographically smallest — where [Bfs.min_hop_path] would lead.  A
   pair with no candidate walks a backward BFS field ([dist_to dst]),
   and the walk is stored after the candidates. *)
let minhop_row w ~dist_to src =
  let n = Array.length w.on_path and width = w.cap + 1 in
  Array.fill w.slots 0 (Array.length w.slots) 0;
  count w src 0;
  let first = Array.make (n + 1) 0 and prim = Array.make n (-1) in
  let paths = ref 0 and words = ref 0 in
  for d = 0 to n - 1 do
    first.(d) <- !paths;
    for k = 1 to w.cap do
      let c = w.slots.((d * width) + k) in
      paths := !paths + c;
      words := !words + (c * k)
    done;
    if !paths > first.(d) then prim.(d) <- first.(d)
  done;
  first.(n) <- !paths;
  for d = 0 to n - 1 do
    if d <> src && prim.(d) < 0 then begin
      let hops = (dist_to d).(src) in
      if hops <> max_int then begin
        prim.(d) <- !paths;
        incr paths;
        words := !words + hops
      end
    end
  done;
  let links = Array.make !words 0 and starts = Array.make (!paths + 1) 0 in
  let j = ref 0 in
  for d = 0 to n - 1 do
    for k = 1 to w.cap do
      let s = (d * width) + k in
      let c = w.slots.(s) in
      w.slots.(s) <- starts.(!j);
      for _ = 1 to c do
        starts.(!j + 1) <- starts.(!j) + k;
        incr j
      done
    done
  done;
  write w links src 0;
  for d = 0 to n - 1 do
    if prim.(d) >= first.(n) then begin
      let dist = dist_to d in
      let at = starts.(!j) in
      starts.(!j + 1) <- at + dist.(src);
      incr j;
      walk w.adj ~dist links ~at src dist.(src)
    end
  done;
  { links; starts; first; prim }

let build ?h ?primary g =
  match primary with
  | Some _ -> build_reference ?h ?primary g
  | None ->
    let n = Graph.node_count g in
    check_h h;
    let h = Option.value h ~default:(n - 1) in
    let cap = min h (n - 1) in
    let w =
      { adj = adjacency g;
        cap;
        on_path = Array.make n false;
        stack = Array.make cap 0;
        slots = Array.make (n * (cap + 1)) 0 }
    in
    (* one backward BFS per destination, shared by all n sources and
       taken only when some pair needs a walk *)
    let dist = Array.make n [||] in
    let dist_to d =
      if Array.length dist.(d) = 0 then dist.(d) <- Bfs.distances_to g ~dst:d;
      dist.(d)
    in
    make ~h ~kind:Minhop g (Array.init n (minhop_row w ~dist_to))

let protected ?weight g =
  let n = Graph.node_count g in
  let pair src dst =
    if src = dst then (None, [])
    else
      match Suurballe.disjoint_pair ?weight g ~src ~dst with
      | Some (p, mate) -> (Some p, [ p; mate ])
      | None -> (
        (* no two link-disjoint paths: protection is impossible, route
           on the min-hop primary alone *)
        match Bfs.min_hop_path g ~src ~dst with
        | None -> (None, [])
        | Some p -> (Some p, [ p ]))
  in
  make ~h:(n - 1) ~kind:Protected g
    (Array.init n (fun src -> pack (Array.init n (pair src))))

(* ------------------------------------------------------------------ *)
(* accessors *)

let graph t = t.graph
let h t = t.h

let row t src dst =
  let n = Array.length t.rows in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Route_table.get: bad node index";
  t.rows.(src)

(* path [j] of row [src], built: link ids copied, nodes read off the
   link destinations *)
let path t src r j =
  let a = r.starts.(j) and hops = hops_of r j in
  let link_ids = Array.sub r.links a hops in
  let nodes = Array.make (hops + 1) src in
  for i = 0 to hops - 1 do
    nodes.(i + 1) <- t.link_dst.(link_ids.(i))
  done;
  Path.with_link_ids_unchecked ~nodes ~link_ids

(* whether path [j] of row [src] has the node sequence of [p] *)
let same_path t src r j (p : Path.t) =
  let a = r.starts.(j) and hops = hops_of r j in
  Path.hops p = hops
  && p.Path.nodes.(0) = src
  &&
  let i = ref 0 in
  while !i < hops && p.Path.nodes.(!i + 1) = t.link_dst.(r.links.(a + !i)) do
    incr i
  done;
  !i = hops

let primary t ~src ~dst =
  let r = row t src dst in
  if r.prim.(dst) < 0 then invalid_arg "Route_table.primary: no route";
  path t src r r.prim.(dst)

let has_route t ~src ~dst = (row t src dst).prim.(dst) >= 0

(* the candidates of [(src, dst)] that [keep] accepts, built *)
let candidates_where t ~src ~dst keep =
  let r = row t src dst in
  let acc = ref [] in
  for j = r.first.(dst + 1) - 1 downto r.first.(dst) do
    if keep r j then acc := path t src r j :: !acc
  done;
  !acc

let alternates t ~src ~dst =
  candidates_where t ~src ~dst (fun r j -> j <> r.prim.(dst))

let alternate_array t ~src ~dst = Array.of_list (alternates t ~src ~dst)

let alternates_excluding t ~src ~dst p =
  let r = row t src dst in
  if r.prim.(dst) >= 0 && same_path t src r r.prim.(dst) p then
    alternates t ~src ~dst
  else candidates_where t ~src ~dst (fun r j -> not (same_path t src r j p))

let candidates t ~src ~dst = candidates_where t ~src ~dst (fun _ _ -> true)

let all_paths t ~src ~dst =
  let r = row t src dst in
  let j = r.prim.(dst) in
  if j < 0 || is_candidate r dst j then candidates t ~src ~dst
  else
    List.sort Path.compare_by_length
      (path t src r j :: candidates t ~src ~dst)

let fold_primary_links t ~src ~dst f init =
  let r = row t src dst in
  let j = r.prim.(dst) in
  let acc = ref init in
  if j >= 0 then
    for i = r.starts.(j) to r.starts.(j + 1) - 1 do
      acc := f !acc r.links.(i)
    done;
  !acc

let fold_alternate_links t ~src ~dst f init =
  let r = row t src dst in
  let acc = ref init in
  for j = r.first.(dst) to r.first.(dst + 1) - 1 do
    if j <> r.prim.(dst) then begin
      let hops = hops_of r j in
      for i = r.starts.(j) to r.starts.(j + 1) - 1 do
        acc := f !acc ~hops r.links.(i)
      done
    end
  done;
  !acc

(* the alternate count of pair [d]: its candidates, less the primary
   when that is one of them *)
let alternate_count r d =
  r.first.(d + 1) - r.first.(d) - if is_candidate r d r.prim.(d) then 1 else 0

let max_alternate_hops t =
  let best = ref 0 in
  Array.iter
    (fun r ->
      Array.iteri
        (fun d j ->
          for i = r.first.(d) to r.first.(d + 1) - 1 do
            if i <> j then best := max !best (hops_of r i)
          done)
        r.prim)
    t.rows;
  !best

let alternate_count_stats t ~min:mn ~max:mx =
  mn := max_int;
  mx := 0;
  let total = ref 0 and pairs = ref 0 in
  Array.iter
    (fun r ->
      Array.iteri
        (fun d j ->
          if j >= 0 then begin
            let c = alternate_count r d in
            incr pairs;
            total := !total + c;
            if c < !mn then mn := c;
            if c > !mx then mx := c
          end)
        r.prim)
    t.rows;
  if !pairs = 0 then 0. else float_of_int !total /. float_of_int !pairs

(* ------------------------------------------------------------------ *)
(* patching: each change is checked and counted against the table it
   changes, applied to the graph, and the changed graph's table built.
   A removal sets the link's capacity to 0, which takes it out of the
   graph's adjacency and so off every path; an addition of that pair
   gives it a capacity again.  No link id ever moves.

   The count is of the ordered pairs the change can affect.  The
   default primary is canonical — the lexicographically-smallest
   min-hop path, a function of the pair's path set alone — so:

   - removing link k changes exactly the pairs whose primary or some
     candidate traverses k.  Any other pair's min-hop set still holds
     its old primary (so the lexmin is unchanged) and its <= h
     candidate set loses nothing.
   - adding link u->v: any *new* path for (s, d) traverses u->v, so its
     hop count is at least dist(s, u) + 1 + dist(v, d).  A pair can
     change only when that lower bound fits under max h (hops primary),
     or when it was unroutable and both distances are now finite.  The
     count is of these pairs, a superset of those that change. *)

type change =
  | Add_link of { src : int; dst : int; capacity : int }
  | Remove_link of { src : int; dst : int }

let labels_of g = Array.init (Graph.node_count g) (Graph.label g)

let check_pair_nodes ~n ~op src dst =
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg (Printf.sprintf "Route_table.patch: %s: bad node index" op);
  if src = dst then
    invalid_arg (Printf.sprintf "Route_table.patch: %s: src = dst" op)

(* whether link [k] occurs in [links.(a) .. links.(b - 1)]; typed, so
   that [=] compares ints rather than calling the polymorphic compare *)
let rec mem_range (links : int array) k a b =
  a < b && (links.(a) = k || mem_range links k (a + 1) b)

let remove t ~src:u ~dst:v =
  let g = t.graph in
  let n = Graph.node_count g in
  check_pair_nodes ~n ~op:"remove" u v;
  let doomed =
    match Graph.find_link g ~src:u ~dst:v with
    | Some l when l.Link.capacity > 0 -> l.Link.id
    | _ ->
      invalid_arg
        (Printf.sprintf "Route_table.patch: remove: no link %d->%d" u v)
  in
  let affected = ref 0 in
  Array.iter
    (fun r ->
      for dst = 0 to n - 1 do
        (* a pair's candidates lie end to end; its primary may not *)
        let j = r.prim.(dst) in
        if
          mem_range r.links doomed
            r.starts.(r.first.(dst))
            r.starts.(r.first.(dst + 1))
          || (j >= 0 && mem_range r.links doomed r.starts.(j) r.starts.(j + 1))
        then incr affected
      done)
    t.rows;
  (Graph.with_capacities g [ (u, v, 0) ], !affected)

let add t ~src:u ~dst:v ~capacity =
  let g = t.graph in
  let n = Graph.node_count g in
  check_pair_nodes ~n ~op:"add" u v;
  let g' =
    match Graph.find_link g ~src:u ~dst:v with
    | Some l when l.Link.capacity > 0 ->
      invalid_arg
        (Printf.sprintf "Route_table.patch: add: link %d->%d already exists"
           u v)
    | Some _ -> Graph.with_capacities g [ (u, v, capacity) ]
    | None ->
      Graph.create ~labels:(labels_of g) ~nodes:n
        (Array.to_list (Graph.links g)
        @ [ Link.make ~id:(Graph.link_count g) ~src:u ~dst:v ~capacity ])
  in
  let du = Bfs.distances_to g' ~dst:u in
  let dv = Bfs.distances g' ~src:v in
  let affected = ref 0 in
  for src = 0 to n - 1 do
    let r = t.rows.(src) in
    for dst = 0 to n - 1 do
      if src <> dst && du.(src) <> max_int && dv.(dst) <> max_int then begin
        let j = r.prim.(dst) in
        (* an unroutable pair becomes routable: every new path uses u->v *)
        if j < 0 || du.(src) + 1 + dv.(dst) <= max t.h (hops_of r j) then
          incr affected
      end
    done
  done;
  (g', !affected)

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
      let g, affected =
        match change with
        | Add_link { src; dst; capacity } -> add t ~src ~dst ~capacity
        | Remove_link { src; dst } -> remove t ~src ~dst
      in
      (build ~h:t.h g, total + affected))
    (t, 0) changes

(* ------------------------------------------------------------------ *)
(* equality by node sequences: equal tables have equal layouts, and a
   path's nodes are its source and its links' destinations, so two rows
   hold the same paths when their index arrays agree and their links
   agree destination by destination, each read in its own graph *)

let rec ints_equal (a : int array) (b : int array) i =
  i >= Array.length a || (a.(i) = b.(i) && ints_equal a b (i + 1))

let same_ints a b = Array.length a = Array.length b && ints_equal a b 0

let rec links_equal a la b lb i =
  i >= Array.length la
  || (a.link_dst.(la.(i)) = b.link_dst.(lb.(i)) && links_equal a la b lb (i + 1))

let rec rows_equal a b s =
  s >= Array.length a.rows
  ||
  let ra = a.rows.(s) and rb = b.rows.(s) in
  same_ints ra.starts rb.starts
  && same_ints ra.first rb.first
  && same_ints ra.prim rb.prim
  && links_equal a ra.links b rb.links 0
  && rows_equal a b (s + 1)

let equal a b =
  a.h = b.h
  && Graph.node_count a.graph = Graph.node_count b.graph
  && rows_equal a b 0

let pp ppf t =
  let n = Graph.node_count t.graph in
  Format.fprintf ppf "@[<v>route table (H=%d)" t.h;
  for src = 0 to n - 1 do
    let r = t.rows.(src) in
    for dst = 0 to n - 1 do
      if r.prim.(dst) >= 0 then
        Format.fprintf ppf "@,  %d->%d: primary %a, %d alternates" src dst
          Path.pp (primary t ~src ~dst) (alternate_count r dst)
    done
  done;
  Format.fprintf ppf "@]"
