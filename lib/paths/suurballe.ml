open Arnet_topology

let is_link_disjoint a b =
  not (Array.exists (fun k -> Path.mem_link b k) a.Path.link_ids)

let check_weight w =
  if not (Float.is_finite w) || w < 0. then
    invalid_arg "Suurballe.check_weight: weights must be finite and nonnegative";
  w

(* Dijkstra over an explicit residual edge list.  Edges: (src, dst,
   cost, tag).  Returns the tag sequence of a cheapest src->dst walk. *)
let residual_dijkstra ~nodes ~edges ~src ~dst =
  let adjacency = Array.make nodes [] in
  List.iter
    (fun (u, v, cost, tag) -> adjacency.(u) <- (v, cost, tag) :: adjacency.(u))
    edges;
  Array.iteri
    (fun i l -> adjacency.(i) <- List.sort compare l)
    adjacency;
  let dist = Array.make nodes infinity in
  let parent = Array.make nodes None in
  let settled = Array.make nodes false in
  let module Pq = Set.Make (struct
    type t = float * int

    let compare = compare
  end) in
  let pq = ref (Pq.singleton (0., src)) in
  dist.(src) <- 0.;
  let rec loop () =
    match Pq.min_elt_opt !pq with
    | None -> ()
    | Some ((d, u) as elt) ->
      pq := Pq.remove elt !pq;
      if not settled.(u) then begin
        settled.(u) <- true;
        List.iter
          (fun (v, cost, tag) ->
            let nd = d +. cost in
            if nd < dist.(v) -. 1e-12 then begin
              dist.(v) <- nd;
              parent.(v) <- Some (u, tag);
              pq := Pq.add (nd, v) !pq
            end)
          adjacency.(u)
      end;
      loop ()
  in
  loop ();
  if dist.(dst) = infinity then None
  else begin
    let rec collect v acc =
      if v = src then acc
      else
        match parent.(v) with
        | Some (u, tag) -> collect u (tag :: acc)
        | None -> assert false
    in
    Some (collect dst [])
  end

(* walk one src->dst path through the combined edge set, consuming the
   edges it uses; drops any cycles so the result is loop-free *)
let walk_one ~nodes ~out ~src ~dst =
  ignore nodes;
  let rec go v acc =
    if v = dst then List.rev (v :: acc)
    else
      match out.(v) with
      | [] -> invalid_arg "Suurballe.walk_one: internal walk stuck"
      | next :: rest ->
        out.(v) <- rest;
        go next (v :: acc)
  in
  let raw = go src [] in
  (* cut loops: keep the last occurrence of each repeated node *)
  let rec dedup = function
    | [] -> []
    | v :: rest ->
      if List.mem v rest then
        (* skip forward to the last occurrence of v *)
        let rec after = function
          | [] -> []
          | w :: tl -> if w = v then (match after tl with [] -> v :: tl | r -> r) else after tl
        in
        dedup (v :: after rest)
      else v :: dedup rest
  in
  (* simpler and clearly correct loop cut: scan keeping first occurrence
     positions; when a node repeats, drop the intermediate cycle *)
  let simplify nodes_list =
    let tbl = Hashtbl.create 16 in
    let buf = ref [] in
    List.iter
      (fun v ->
        match Hashtbl.find_opt tbl v with
        | None ->
          Hashtbl.add tbl v ();
          buf := v :: !buf
        | Some () ->
          (* unwind the cycle back to v *)
          let rec unwind = function
            | [] -> [ v ]
            | w :: rest ->
              if w = v then w :: rest
              else begin
                Hashtbl.remove tbl w;
                unwind rest
              end
          in
          buf := unwind !buf)
      nodes_list;
    List.rev !buf
  in
  ignore dedup;
  simplify raw

let disjoint_pair ?weight g ~src ~dst =
  if src = dst then invalid_arg "Suurballe.disjoint_pair: src = dst";
  let weight =
    match weight with
    | None -> fun (_ : Link.t) -> 1.
    | Some w -> fun l -> check_weight (w l)
  in
  match Dijkstra.shortest_path g ~weight ~src ~dst with
  | None -> None
  | Some p1 ->
    let d = Dijkstra.distances g ~weight ~src in
    let on_p1 = Hashtbl.create 8 in
    Array.iter (fun k -> Hashtbl.replace on_p1 k ()) p1.Path.link_ids;
    let nodes = Graph.node_count g in
    let edges = ref [] in
    for u = 0 to nodes - 1 do
      List.iter
        (fun l ->
          let v = l.Link.dst in
          if Float.is_finite d.(u) && Float.is_finite d.(v) then begin
            let reduced = weight l +. d.(u) -. d.(v) in
            let reduced = Float.max 0. reduced in
            if Hashtbl.mem on_p1 l.Link.id then
              (* reverse the first path's links in the residual *)
              edges := (v, u, 0., `Reverse l.Link.id) :: !edges
            else edges := (u, v, reduced, `Forward l.Link.id) :: !edges
          end)
        (Graph.out_links g u)
    done;
    (match residual_dijkstra ~nodes ~edges:!edges ~src ~dst with
    | None -> None
    | Some tags ->
      (* combine: start from P1's links, cancel reversed ones, add the
         second walk's forward links *)
      let used = Hashtbl.create 16 in
      Array.iter (fun k -> Hashtbl.replace used k ()) p1.Path.link_ids;
      List.iter
        (fun tag ->
          match tag with
          | `Reverse k -> Hashtbl.remove used k
          | `Forward k -> Hashtbl.replace used k ())
        tags;
      let out = Array.make nodes [] in
      Hashtbl.iter
        (fun k () ->
          let l = Graph.link g k in
          out.(l.Link.src) <- l.Link.dst :: out.(l.Link.src))
        used;
      Array.iteri (fun i l -> out.(i) <- List.sort compare l) out;
      let nodes_a = walk_one ~nodes ~out ~src ~dst in
      let nodes_b = walk_one ~nodes ~out ~src ~dst in
      let pa = Path.of_nodes_unchecked g (Array.of_list nodes_a) in
      let pb = Path.of_nodes_unchecked g (Array.of_list nodes_b) in
      if not (is_link_disjoint pa pb) then None
      else if Path.compare_by_length pa pb <= 0 then Some (pa, pb)
      else Some (pb, pa))

let edge_connectivity_at_least_two g =
  let n = Graph.node_count g in
  let ok = ref true in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && disjoint_pair g ~src ~dst = None then ok := false
    done
  done;
  !ok
