open Arnet_topology
open Arnet_paths
open Arnet_sim

type outcome = Routed of Path.t | Lost

type policy = {
  name : string;
  decide : occupancy:int array -> call:Mr_trace.call -> outcome;
}

type stats = {
  offered : int array;
  blocked : int array;
  carried_alternate : int;
  total_offered_bandwidth : int;
  total_blocked_bandwidth : int;
}

(* the same structure-of-arrays treatment as Engine.run: departure
   payloads are call indices (an immediate int), the seized link ids are
   remembered by aliasing the routed path's own immutable link_ids (no
   per-admit copy), deadlines are read from the trace's packed
   [ends]/[times] columns, and the primary-hop lookup keys a dense
   [n*n] int table instead of a tuple-keyed hashtable — so the per-call
   steady-state path allocates no minor-heap words *)
let run ?(warmup = 10.) ~graph ~workload ~policy ~duration
    (trace : Mr_trace.t) =
  if warmup < 0. || warmup >= duration then
    invalid_arg "Mr_engine.run: warmup must be in [0, duration)";
  if Mr_trace.nodes workload <> Graph.node_count graph then
    invalid_arg "Mr_engine.run: workload/graph size mismatch";
  let calls = trace.Mr_trace.calls in
  let times = trace.Mr_trace.times and ends = trace.Mr_trace.ends in
  let classes = workload.Mr_trace.classes in
  let nc = Array.length classes in
  let n = Graph.node_count graph in
  let m = Graph.link_count graph in
  let capacity = Array.make m 0 in
  Graph.iter_links (fun l -> capacity.(l.Link.id) <- l.Link.capacity) graph;
  let class_bw =
    Array.map (fun (c : Call_class.t) -> c.Call_class.bandwidth) classes
  in
  let occupancy = Array.make m 0 in
  let departures : int Event_queue.t = Event_queue.create () in
  let admitted = Array.make (max 1 (Array.length calls)) [||] in
  let offered = Array.make nc 0 and blocked = Array.make nc 0 in
  let carried_alternate = ref 0 in
  let offered_bw = ref 0 and blocked_bw = ref 0 in
  (* min_int = not computed yet; -1 = unroutable pair *)
  let hops_table = Array.make (n * n) min_int in
  let primary_hops src dst =
    let key = (src * n) + dst in
    let h = Array.unsafe_get hops_table key in
    if h <> min_int then h
    else begin
      let h =
        match Bfs.min_hop_path graph ~src ~dst with
        | Some p -> Path.hops p
        | None -> -1
      in
      hops_table.(key) <- h;
      h
    end
  in
  let rec release_ids ids bandwidth i =
    if i < Array.length ids then begin
      let id = Array.unsafe_get ids i in
      occupancy.(id) <- occupancy.(id) - bandwidth;
      assert (occupancy.(id) >= 0);
      release_ids ids bandwidth (i + 1)
    end
  in
  let release j =
    let ids = admitted.(j) in
    let bandwidth = class_bw.((Array.unsafe_get calls j).Mr_trace.class_index) in
    release_ids ids bandwidth 0;
    admitted.(j) <- [||]  (* drop the alias once the call departs *)
  in
  let rec occupy ids bandwidth i =
    if i < Array.length ids then begin
      let id = Array.unsafe_get ids i in
      if id < 0 || id >= m then
        invalid_arg "Mr_engine.run: policy routed over unknown link";
      if occupancy.(id) + bandwidth > capacity.(id) then
        invalid_arg "Mr_engine.run: policy oversubscribed a link";
      occupancy.(id) <- occupancy.(id) + bandwidth;
      occupy ids bandwidth (i + 1)
    end
  in
  let handle i (call : Mr_trace.call) =
    while Event_queue.next_due departures ~deadlines:times i do
      release (Event_queue.pop_payload departures)
    done;
    let ci = call.Mr_trace.class_index in
    let bandwidth = Array.unsafe_get class_bw ci in
    let measured = call.Mr_trace.time >= warmup in
    if measured then begin
      offered.(ci) <- offered.(ci) + 1;
      offered_bw := !offered_bw + bandwidth
    end;
    match policy.decide ~occupancy ~call with
    | Lost ->
      if measured then begin
        blocked.(ci) <- blocked.(ci) + 1;
        blocked_bw := !blocked_bw + bandwidth
      end
    | Routed p ->
      if Path.src p <> call.Mr_trace.src || Path.dst p <> call.Mr_trace.dst
      then invalid_arg "Mr_engine.run: wrong endpoints";
      occupy p.Path.link_ids bandwidth 0;
      admitted.(i) <- p.Path.link_ids;
      Event_queue.push_at departures ~times:ends i i;
      if
        measured
        && Path.hops p > primary_hops call.Mr_trace.src call.Mr_trace.dst
      then incr carried_alternate
  in
  Array.iteri handle calls;
  { offered;
    blocked;
    carried_alternate = !carried_alternate;
    total_offered_bandwidth = !offered_bw;
    total_blocked_bandwidth = !blocked_bw }

let class_blocking s ci =
  if s.offered.(ci) = 0 then 0.
  else float_of_int s.blocked.(ci) /. float_of_int s.offered.(ci)

let call_blocking s =
  let o = Array.fold_left ( + ) 0 s.offered in
  if o = 0 then 0.
  else float_of_int (Array.fold_left ( + ) 0 s.blocked) /. float_of_int o

let bandwidth_blocking s =
  if s.total_offered_bandwidth = 0 then 0.
  else
    float_of_int s.total_blocked_bandwidth
    /. float_of_int s.total_offered_bandwidth

let replicate ?warmup ?domains ~seeds ~duration ~graph ~workload ~policies ()
    =
  let policy_arr = Array.of_list policies in
  Engine.replicate_grid ~caller:"Mr_engine.replicate" ?domains ~seeds
    ~names:(List.map (fun p -> p.name) policies)
    ~context:(fun seed ->
      let rng = Rng.substream (Rng.create ~seed) "mr-trace" in
      Mr_trace.generate ~rng ~duration workload)
    ~run:(fun trace pi ->
      run ?warmup ~graph ~workload ~policy:policy_arr.(pi) ~duration trace)
    ()
