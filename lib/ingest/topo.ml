open Arnet_topology

type t = {
  name : string;
  graph : Graph.t;
  coords : (float * float) option array;
  merged_parallel : int;
  dropped_self_loops : int;
}

let make ?(name = "topology") ?coords ?(merged_parallel = 0)
    ?(dropped_self_loops = 0) graph =
  let n = Graph.node_count graph in
  let coords =
    match coords with None -> Array.make n None | Some c -> c
  in
  if Array.length coords <> n then
    invalid_arg "Topo.make: coords length <> node count";
  Array.iter
    (function
      | None -> ()
      | Some (x, y) ->
        if not (Float.is_finite x && Float.is_finite y) then
          invalid_arg "Topo.make: non-finite coordinate")
    coords;
  if merged_parallel < 0 || dropped_self_loops < 0 then
    invalid_arg "Topo.make: negative cleanup counter";
  { name; graph; coords; merged_parallel; dropped_self_loops }

let equal a b =
  let ga = a.graph and gb = b.graph in
  a.name = b.name
  && Graph.node_count ga = Graph.node_count gb
  && Graph.link_count ga = Graph.link_count gb
  && Array.for_all2 Link.equal (Graph.links ga) (Graph.links gb)
  && (let n = Graph.node_count ga in
      let ok = ref true in
      for v = 0 to n - 1 do
        if Graph.label ga v <> Graph.label gb v then ok := false
      done;
      !ok)
  && a.coords = b.coords

let normalized_coords t =
  let n = Graph.node_count t.graph in
  if n = 0 || Array.exists (fun c -> c = None) t.coords then None
  else begin
    let xs = Array.map (function Some (x, _) -> x | None -> 0.) t.coords in
    let ys = Array.map (function Some (_, y) -> y | None -> 0.) t.coords in
    let lo a = Array.fold_left Float.min a.(0) a in
    let hi a = Array.fold_left Float.max a.(0) a in
    let scale lo hi v = if hi > lo then (v -. lo) /. (hi -. lo) else 0.5 in
    let x0 = lo xs and x1 = hi xs and y0 = lo ys and y1 = hi ys in
    Some
      (Array.init n (fun v -> (scale x0 x1 xs.(v), scale y0 y1 ys.(v))))
  end

type summary = {
  nodes : int;
  links : int;
  total_capacity : int;
  min_capacity : int;
  max_capacity : int;
  degree_min : int;
  degree_max : int;
  degree_mean : float;
  symmetric : bool;
  strongly_connected : bool;
  with_coords : int;
}

let summarize t =
  let g = t.graph in
  let n = Graph.node_count g and m = Graph.link_count g in
  let caps = Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g) in
  let degs = Array.init n (Graph.degree_out g) in
  let fold f init a = Array.fold_left f init a in
  { nodes = n;
    links = m;
    total_capacity = Graph.total_capacity g;
    min_capacity = (if m = 0 then 0 else fold min max_int caps);
    max_capacity = (if m = 0 then 0 else fold max 0 caps);
    degree_min = (if n = 0 then 0 else fold min max_int degs);
    degree_max = (if n = 0 then 0 else fold max 0 degs);
    degree_mean = (if n = 0 then 0. else float_of_int m /. float_of_int n);
    symmetric = Graph.is_symmetric g;
    strongly_connected = (n > 0 && Graph.is_strongly_connected g);
    with_coords =
      Array.fold_left
        (fun acc c -> if c = None then acc else acc + 1)
        0 t.coords }

let pp_summary ~name ppf s =
  Format.fprintf ppf "@[<v>name                %s@," name;
  Format.fprintf ppf "nodes               %d@," s.nodes;
  Format.fprintf ppf "links               %d@," s.links;
  Format.fprintf ppf "total-capacity      %d@," s.total_capacity;
  Format.fprintf ppf "capacity-range      %d..%d@," s.min_capacity
    s.max_capacity;
  Format.fprintf ppf "out-degree          %d..%d (mean %.2f)@," s.degree_min
    s.degree_max s.degree_mean;
  Format.fprintf ppf "symmetric           %b@," s.symmetric;
  Format.fprintf ppf "strongly-connected  %b@," s.strongly_connected;
  Format.fprintf ppf "with-coordinates    %d/%d@]" s.with_coords s.nodes
