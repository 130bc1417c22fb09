open Arnet_topology

let check g src dst =
  let n = Graph.node_count g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Enumerate.check: bad node index";
  if src = dst then invalid_arg "Enumerate.check: src = dst"

let dfs ?max_hops g ~src ~dst ~visit =
  check g src dst;
  let n = Graph.node_count g in
  let cap = match max_hops with None -> n - 1 | Some h -> min h (n - 1) in
  if cap < 1 then invalid_arg "Enumerate.dfs: max_hops < 1";
  let on_path = Array.make n false in
  let stack = Array.make (cap + 1) 0 in
  let rec explore v depth =
    stack.(depth) <- v;
    if v = dst then visit (Array.sub stack 0 (depth + 1))
    else if depth < cap then begin
      on_path.(v) <- true;
      let step w = if not on_path.(w) && w <> src then explore w (depth + 1) in
      List.iter step (Graph.successors g v);
      on_path.(v) <- false
    end
  in
  explore src 0

let simple_paths ?max_hops g ~src ~dst =
  let acc = ref [] in
  dfs ?max_hops g ~src ~dst ~visit:(fun nodes ->
      acc := Path.of_nodes_unchecked g (Array.copy nodes) :: !acc);
  List.sort Path.compare_by_length !acc

let count_simple_paths ?max_hops g ~src ~dst =
  let count = ref 0 in
  dfs ?max_hops g ~src ~dst ~visit:(fun _ -> incr count);
  !count

let path_census ?max_hops g =
  let n = Graph.node_count g in
  let acc = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if src <> dst then
        acc := (src, dst, count_simple_paths ?max_hops g ~src ~dst) :: !acc
    done
  done;
  !acc
