open Arnet_topology

(* breadth-first over [links_of v], reaching [endpoint l]: each node
   enters the array queue once, and no list is built per node *)
let bfs n start links_of endpoint =
  let dist = Array.make n max_int and queue = Array.make n start in
  let tail = ref 1 in
  let rec relax d = function
    | [] -> ()
    | (l : Link.t) :: rest ->
      let w = endpoint l in
      if dist.(w) = max_int then begin
        dist.(w) <- d;
        queue.(!tail) <- w;
        incr tail
      end;
      relax d rest
  in
  dist.(start) <- 0;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    relax (dist.(v) + 1) (links_of v)
  done;
  dist

let distances g ~src =
  if src < 0 || src >= Graph.node_count g then invalid_arg "Bfs.distances: bad source node";
  bfs (Graph.node_count g) src (Graph.out_links g) (fun (l : Link.t) -> l.Link.dst)

let distances_to g ~dst =
  if dst < 0 || dst >= Graph.node_count g then invalid_arg "Bfs.distances_to: bad destination node";
  bfs (Graph.node_count g) dst (Graph.in_links g) (fun (l : Link.t) -> l.Link.src)

let min_hop_path g ~src ~dst =
  if src = dst then invalid_arg "Bfs.min_hop_path: src = dst";
  let dist = distances_to g ~dst in
  if dist.(src) = max_int then None
  else begin
    (* Walk greedily towards dst, always taking the smallest-indexed
       neighbour that lies on some shortest path.  Out-links are sorted
       by destination, so the first qualifying one gives the
       lexicographically smallest min-hop node sequence, and it carries
       the link id with it. *)
    let rec closer d = function
      | [] -> raise Not_found
      | (l : Link.t) :: rest -> if dist.(l.Link.dst) = d then l else closer d rest
    in
    let hops = dist.(src) in
    let nodes = Array.make (hops + 1) src and link_ids = Array.make hops 0 in
    for i = 0 to hops - 1 do
      let l = closer (hops - i - 1) (Graph.out_links g nodes.(i)) in
      nodes.(i + 1) <- l.Link.dst;
      link_ids.(i) <- l.Link.id
    done;
    Some (Path.with_link_ids_unchecked ~nodes ~link_ids)
  end

let eccentricity g v =
  let dist = distances g ~src:v in
  Array.fold_left
    (fun acc d -> if d = max_int then acc else max acc d)
    0 dist

let diameter g =
  let n = Graph.node_count g in
  if not (Graph.is_strongly_connected g) then
    invalid_arg "Bfs.diameter: graph not strongly connected";
  let best = ref 0 in
  for v = 0 to n - 1 do
    best := max !best (eccentricity g v)
  done;
  !best
