(* For each link of a route table's graph, the ordered pairs with a
   stored path over it, primary or alternate: the pairs a patch
   removing that link counts.  Read from the rows with the folds, so no
   path is built. *)
let count routes =
  let module RT = Arnet_paths.Route_table in
  let g = RT.graph routes in
  let n = Arnet_topology.Graph.node_count g in
  let m = Arnet_topology.Graph.link_count g in
  let count = Array.make m 0 and seen = Array.make m (-1) in
  let note pair k =
    if seen.(k) <> pair then begin
      seen.(k) <- pair;
      count.(k) <- count.(k) + 1
    end
  in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let pair = (src * n) + dst in
      RT.fold_primary_links routes ~src ~dst (fun () k -> note pair k) ();
      RT.fold_alternate_links routes ~src ~dst
        (fun () ~hops:_ k -> note pair k)
        ()
    done
  done;
  count
