open Arnet_topology

let bfs n start neighbours =
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(start) <- 0;
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let relax w =
      if dist.(w) = max_int then begin
        dist.(w) <- dist.(v) + 1;
        Queue.add w queue
      end
    in
    List.iter relax (neighbours v)
  done;
  dist

let distances g ~src =
  if src < 0 || src >= Graph.node_count g then invalid_arg "Bfs.distances: bad source node";
  bfs (Graph.node_count g) src (Graph.successors g)

let distances_to g ~dst =
  if dst < 0 || dst >= Graph.node_count g then invalid_arg "Bfs.distances_to: bad destination node";
  let preds v = List.map (fun (l : Link.t) -> l.Link.src) (Graph.in_links g v) in
  bfs (Graph.node_count g) dst preds

let greedy_walk g ~dist ~src ~dst =
  if src = dst then invalid_arg "Bfs.greedy_walk: src = dst";
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

let min_hop_path g ~src ~dst =
  if src = dst then invalid_arg "Bfs.min_hop_path: src = dst";
  greedy_walk g ~dist:(distances_to g ~dst) ~src ~dst

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
