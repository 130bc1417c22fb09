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

let by_hops a b = Int.compare (Path.hops a) (Path.hops b)

let paths_from ?max_hops g ~src =
  let n = Graph.node_count g in
  if src < 0 || src >= n then invalid_arg "Enumerate.paths_from: bad node index";
  (match max_hops with
  | Some h when h < 1 -> invalid_arg "Enumerate.paths_from: max_hops < 1"
  | _ -> ());
  (* a one-node graph clamps [cap] to 0: an empty row, not an error *)
  let cap = match max_hops with None -> n - 1 | Some h -> min h (n - 1) in
  let acc = Array.make n [] in
  let on_path = Array.make n false in
  let nodes = Array.make (cap + 1) 0 and links = Array.make cap 0 in
  (* one DFS tree for the whole row: every visited prefix *is* a simple
     path to its endpoint, so each destination's bucket collects exactly
     the set the per-pair [dfs] would have found — at the cost of one
     tree instead of [n - 1] almost-identical ones.  The link stack
     rides beside the node stack, so no prefix looks a link up. *)
  let rec explore v depth =
    nodes.(depth) <- v;
    if depth > 0 then
      acc.(v) <-
        Path.with_link_ids_unchecked
          ~nodes:(Array.sub nodes 0 (depth + 1))
          ~link_ids:(Array.sub links 0 depth)
        :: acc.(v);
    if depth < cap then begin
      on_path.(v) <- true;
      extend depth (Graph.out_links g v);
      on_path.(v) <- false
    end
  and extend depth = function
    | [] -> ()
    | (l : Link.t) :: rest ->
      if not on_path.(l.Link.dst) then begin
        links.(depth) <- l.Link.id;
        explore l.Link.dst (depth + 1)
      end;
      extend depth rest
  in
  explore src 0;
  (* pre-order over ascending out-links visits each bucket's paths in
     lexicographic order (none is a prefix of another: they share their
     last node); reversed, then stably sorted by hop count, that is the
     (hops, lex) order of [Path.compare_by_length] *)
  Array.map (fun bucket -> List.stable_sort by_hops (List.rev bucket)) acc

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
