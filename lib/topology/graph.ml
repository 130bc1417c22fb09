type t = {
  nodes : int;
  labels : string array;
  links : Link.t array;
  out_adj : Link.t list array;  (* per node, sorted by dst *)
  in_adj : Link.t list array;  (* per node, sorted by src *)
  by_pair : (int * int, Link.t) Hashtbl.t;
}

let node_count g = g.nodes
let link_count g = Array.length g.links
let label g v =
  if v < 0 || v >= g.nodes then invalid_arg "Graph.label: bad node";
  g.labels.(v)

let create ?labels ~nodes link_list =
  if nodes <= 0 then invalid_arg "Graph.create: need at least one node";
  let labels =
    match labels with
    | None -> Array.init nodes string_of_int
    | Some a ->
      if Array.length a <> nodes then
        invalid_arg "Graph.create: labels length mismatch";
      Array.copy a
  in
  let m = List.length link_list in
  let links = Array.make m (Link.make ~id:0 ~src:0 ~dst:1 ~capacity:0) in
  let seen_id = Array.make m false in
  let by_pair = Hashtbl.create (2 * m) in
  let place (l : Link.t) =
    if l.Link.id >= m then invalid_arg "Graph.create: link id out of range";
    if seen_id.(l.Link.id) then invalid_arg "Graph.create: duplicate link id";
    if l.Link.src >= nodes || l.Link.dst >= nodes then
      invalid_arg "Graph.create: link endpoint out of range";
    if Hashtbl.mem by_pair (l.Link.src, l.Link.dst) then
      invalid_arg "Graph.create: duplicate directed link";
    seen_id.(l.Link.id) <- true;
    links.(l.Link.id) <- l;
    Hashtbl.add by_pair (l.Link.src, l.Link.dst) l
  in
  List.iter place link_list;
  (* a link of capacity 0 carries nothing, so no walk may cross it *)
  let out_adj = Array.make nodes [] and in_adj = Array.make nodes [] in
  Array.iter
    (fun (l : Link.t) ->
      if l.Link.capacity > 0 then begin
        out_adj.(l.Link.src) <- l :: out_adj.(l.Link.src);
        in_adj.(l.Link.dst) <- l :: in_adj.(l.Link.dst)
      end)
    links;
  let by_dst (a : Link.t) (b : Link.t) = compare a.Link.dst b.Link.dst in
  let by_src (a : Link.t) (b : Link.t) = compare a.Link.src b.Link.src in
  Array.iteri (fun i l -> out_adj.(i) <- List.sort by_dst l) out_adj;
  Array.iteri (fun i l -> in_adj.(i) <- List.sort by_src l) in_adj;
  { nodes; labels; links; out_adj; in_adj; by_pair }

let of_edges ?labels ~nodes ~capacity pairs =
  let seen = Hashtbl.create 16 in
  let add_edge (acc, id) (a, b) =
    if a = b then invalid_arg "Graph.of_edges: self-loop";
    let key = (min a b, max a b) in
    if Hashtbl.mem seen key then invalid_arg "Graph.of_edges: duplicate edge";
    Hashtbl.add seen key ();
    let fwd = Link.make ~id ~src:a ~dst:b ~capacity in
    let bwd = Link.make ~id:(id + 1) ~src:b ~dst:a ~capacity in
    (bwd :: fwd :: acc, id + 2)
  in
  let links, _ = List.fold_left add_edge ([], 0) pairs in
  create ?labels ~nodes (List.rev links)

let link g i =
  if i < 0 || i >= Array.length g.links then invalid_arg "Graph.link: bad id";
  g.links.(i)

let links g = Array.copy g.links
let find_link g ~src ~dst = Hashtbl.find_opt g.by_pair (src, dst)

let find_link_exn g ~src ~dst =
  match find_link g ~src ~dst with Some l -> l | None -> raise Not_found

let out_links g v =
  if v < 0 || v >= g.nodes then invalid_arg "Graph.out_links: bad node";
  g.out_adj.(v)

let in_links g v =
  if v < 0 || v >= g.nodes then invalid_arg "Graph.in_links: bad node";
  g.in_adj.(v)

let successors g v = List.map (fun (l : Link.t) -> l.Link.dst) (out_links g v)
let degree_out g v = List.length (out_links g v)
let degree_in g v = List.length (in_links g v)

let without_links g pairs =
  let doomed = Hashtbl.create 8 in
  let mark (src, dst) =
    match find_link g ~src ~dst with
    | None ->
      invalid_arg
        (Printf.sprintf "Graph.without_links: no link %d->%d" src dst)
    | Some l -> Hashtbl.replace doomed l.Link.id ()
  in
  List.iter mark pairs;
  let keep =
    Array.to_list g.links
    |> List.filter (fun (l : Link.t) -> not (Hashtbl.mem doomed l.Link.id))
  in
  let relabel id (l : Link.t) =
    Link.make ~id ~src:l.Link.src ~dst:l.Link.dst ~capacity:l.Link.capacity
  in
  create ~labels:g.labels ~nodes:g.nodes (List.mapi relabel keep)

let with_capacities g updates =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (src, dst, c) ->
      if c < 0 then invalid_arg "Graph.with_capacities: negative capacity";
      Hashtbl.replace tbl (src, dst) c)
    updates;
  let update (l : Link.t) =
    match Hashtbl.find_opt tbl (l.Link.src, l.Link.dst) with
    | None -> l
    | Some c ->
      Hashtbl.remove tbl (l.Link.src, l.Link.dst);
      Link.make ~id:l.Link.id ~src:l.Link.src ~dst:l.Link.dst ~capacity:c
  in
  let links = Array.to_list g.links |> List.map update in
  if Hashtbl.length tbl > 0 then
    invalid_arg "Graph.with_capacities: unknown link";
  create ~labels:g.labels ~nodes:g.nodes links

let is_symmetric g =
  Array.for_all
    (fun (l : Link.t) ->
      match find_link g ~src:l.Link.dst ~dst:l.Link.src with
      | Some r -> r.Link.capacity = l.Link.capacity
      | None -> false)
    g.links

let is_strongly_connected g =
  (* two BFS sweeps: forward reachability and backward reachability from 0 *)
  let reachable adj =
    let seen = Array.make g.nodes false in
    let queue = Queue.create () in
    Queue.add 0 queue;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            incr count;
            Queue.add w queue
          end)
        (adj v)
    done;
    !count = g.nodes
  in
  let fwd v = List.map (fun (l : Link.t) -> l.Link.dst) g.out_adj.(v) in
  let bwd v = List.map (fun (l : Link.t) -> l.Link.src) g.in_adj.(v) in
  g.nodes = 1 || (reachable fwd && reachable bwd)

let fold_links f g init = Array.fold_left (fun acc l -> f l acc) init g.links
let iter_links f g = Array.iter f g.links
let total_capacity g = fold_links (fun l acc -> acc + l.Link.capacity) g 0

let pp ppf g =
  Format.fprintf ppf "@[<v>graph: %d nodes, %d links" g.nodes
    (Array.length g.links);
  Array.iter
    (fun (l : Link.t) ->
      Format.fprintf ppf "@,  %s -> %s  C=%d" g.labels.(l.Link.src)
        g.labels.(l.Link.dst) l.Link.capacity)
    g.links;
  Format.fprintf ppf "@]"

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph network {\n";
  Array.iteri
    (fun v lbl -> Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v lbl))
    g.labels;
  let emitted = Hashtbl.create 16 in
  let emit (l : Link.t) =
    let twin = find_link g ~src:l.Link.dst ~dst:l.Link.src in
    match twin with
    | Some r when r.Link.capacity = l.Link.capacity ->
      let key = (min l.Link.src l.Link.dst, max l.Link.src l.Link.dst) in
      if not (Hashtbl.mem emitted key) then begin
        Hashtbl.add emitted key ();
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [dir=both, label=\"%d\"];\n" l.Link.src
             l.Link.dst l.Link.capacity)
      end
    | _ ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" l.Link.src l.Link.dst
           l.Link.capacity)
  in
  Array.iter emit g.links;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
