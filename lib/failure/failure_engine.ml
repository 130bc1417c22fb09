open Arnet_topology
open Arnet_paths
open Arnet_sim

type policy = {
  name : string;
  decide :
    occupancy:int array -> alive:bool array -> call:Trace.call ->
    Engine.outcome;
  is_primary : call:Trace.call -> Path.t -> bool;
  primary_of : call:Trace.call -> Path.t option;
}

type stats = { core : Stats.t; dropped : int; failovers : int }

let path_alive alive (p : Path.t) =
  let ids = p.Path.link_ids in
  let rec ok i =
    i >= Array.length ids || (alive.(Array.unsafe_get ids i) && ok (i + 1))
  in
  ok 0

let run ?(warmup = 10.) ?(script = Script.empty) ~graph ~policy trace =
  let { Trace.calls; ends; duration; matrix; _ } = trace in
  if warmup < 0. || warmup >= duration then
    invalid_arg "Failure_engine.run: warmup must be in [0, duration)";
  if Arnet_traffic.Matrix.nodes matrix <> Graph.node_count graph then
    invalid_arg "Failure_engine.run: trace/graph size mismatch";
  let m = Graph.link_count graph in
  if Script.max_link script >= m then
    invalid_arg "Failure_engine.run: script mentions a link outside the graph";
  let capacity = Array.make m 0 in
  Graph.iter_links (fun l -> capacity.(l.Link.id) <- l.Link.capacity) graph;
  let occupancy = Array.make m 0 in
  let alive = Array.make m true in
  (* departures carry the call index; the path is looked up in [active],
     which a FAIL may already have emptied (lazy deletion) *)
  let departures : int Event_queue.t = Event_queue.create () in
  let active : (int, Path.t) Hashtbl.t = Hashtbl.create 1024 in
  let stats = Stats.empty ~nodes:(Graph.node_count graph) in
  let dropped = ref 0 and failovers = ref 0 in
  let events = Script.to_array script in
  let n_events = Array.length events in
  let cursor = ref 0 in
  let release_path (p : Path.t) =
    let ids = p.Path.link_ids in
    for i = 0 to Array.length ids - 1 do
      let id = Array.unsafe_get ids i in
      occupancy.(id) <- occupancy.(id) - 1;
      assert (occupancy.(id) >= 0)
    done
  in
  let depart idx =
    match Hashtbl.find_opt active idx with
    | None -> () (* dropped by an earlier failure *)
    | Some p ->
      Hashtbl.remove active idx;
      release_path p
  in
  let apply_event (e : Script.event) =
    match e.Script.action with
    | Script.Repair -> alive.(e.Script.link) <- true
    | Script.Fail ->
      let k = e.Script.link in
      if alive.(k) then begin
        alive.(k) <- false;
        let victims =
          Hashtbl.fold
            (fun idx p acc ->
              if Path.mem_link p k then (idx, p) :: acc else acc)
            active []
          |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
        in
        List.iter
          (fun (idx, p) ->
            Hashtbl.remove active idx;
            release_path p;
            if e.Script.time >= warmup then incr dropped)
          victims
      end
  in
  (* departures and script events due at or before [t] merge in time
     order; at equal instants the departure goes first (a call ending
     the instant its link dies is complete, not dropped) *)
  let rec advance t =
    let dep =
      match Event_queue.peek_time departures with
      | Some u when u <= t -> u
      | _ -> Float.infinity
    in
    let scr =
      if !cursor < n_events && events.(!cursor).Script.time <= t then
        events.(!cursor).Script.time
      else Float.infinity
    in
    if dep = Float.infinity && scr = Float.infinity then ()
    else if dep <= scr then begin
      (match Event_queue.pop departures with
      | Some (_, idx) -> depart idx
      | None -> ());
      advance t
    end
    else begin
      apply_event events.(!cursor);
      incr cursor;
      advance t
    end
  in
  let handle i (call : Trace.call) =
    advance call.Trace.time;
    let measured = call.Trace.time >= warmup in
    if measured then
      Stats.record_offered stats ~src:call.Trace.src ~dst:call.Trace.dst;
    match policy.decide ~occupancy ~alive ~call with
    | Engine.Lost ->
      if measured then
        Stats.record_blocked stats ~src:call.Trace.src ~dst:call.Trace.dst
    | Engine.Routed p ->
      if Path.src p <> call.Trace.src || Path.dst p <> call.Trace.dst then
        invalid_arg "Failure_engine.run: policy routed to wrong endpoints";
      let ids = p.Path.link_ids in
      for j = 0 to Array.length ids - 1 do
        let id = ids.(j) in
        if id < 0 || id >= m then
          invalid_arg "Failure_engine.run: policy routed over unknown link";
        if not alive.(id) then
          invalid_arg "Failure_engine.run: policy routed over a failed link";
        if occupancy.(id) >= capacity.(id) then
          invalid_arg "Failure_engine.run: policy routed over a full link"
      done;
      for j = 0 to Array.length ids - 1 do
        let id = ids.(j) in
        occupancy.(id) <- occupancy.(id) + 1
      done;
      Hashtbl.replace active i p;
      Event_queue.push_at departures ~times:ends i i;
      if measured then
        if policy.is_primary ~call p then Stats.record_primary stats
        else begin
          Stats.record_alternate stats ~hops:(Path.hops p);
          match policy.primary_of ~call with
          | Some prim when not (path_alive alive prim) -> incr failovers
          | _ -> ()
        end
  in
  for i = 0 to Array.length calls - 1 do
    handle i (Array.unsafe_get calls i)
  done;
  { core = stats; dropped = !dropped; failovers = !failovers }

let replicate_fresh ?warmup ?mean_holding ?domains ~seeds ~duration ~graph
    ~matrix ~script ~policies () =
  let names = List.map (fun p -> p.name) (policies ()) in
  (* same substream as Engine.replicate so the workloads line up with
     the plain engine's runs for the same seeds *)
  let context seed =
    let rng = Rng.substream (Rng.create ~seed) "trace" in
    let trace = Trace.generate ?mean_holding ~rng ~duration matrix in
    let sc = script ~seed in
    let fresh = policies () in
    if List.map (fun p -> p.name) fresh <> names then
      invalid_arg "Failure_engine.replicate_fresh: factory changed policy names";
    (trace, sc, Array.of_list fresh)
  in
  Engine.replicate_grid ~caller:"Failure_engine.replicate" ?domains ~seeds
    ~names ~context
    ~run:(fun (trace, sc, fresh) pi ->
      run ?warmup ~script:sc ~graph ~policy:fresh.(pi) trace)
    ()
