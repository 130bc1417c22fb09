open Arnet_topology
open Arnet_paths

type outcome = Routed of Path.t | Lost

type policy = {
  name : string;
  decide : occupancy:int array -> call:Trace.call -> outcome;
  is_primary : call:Trace.call -> Path.t -> bool;
}

(* process-wide odometer: one Array.length per run, so the per-call hot
   path pays nothing.  Atomic because replications may run on several
   domains at once; benchmarks read the delta to report calls/sec. *)
let simulated_calls = Atomic.make 0

let calls_simulated () = Atomic.get simulated_calls

exception
  Replication_failure of { seed : int; policy : string; exn : exn }

let () =
  Printexc.register_printer (function
    | Replication_failure { seed; policy; exn } ->
      Some
        (Printf.sprintf
           "Arnet_sim.Engine.Replication_failure(seed=%d, policy=%S): %s"
           seed policy (Printexc.to_string exn))
    | _ -> None)

(* closure-free per-link walks: defined once per run (they close over
   the run's occupancy/capacity arrays) and recurse with int arguments
   only, so the admit/release hot path allocates nothing *)
let run ?(warmup = 10.) ?observer ~graph ~policy trace =
  let { Trace.calls; times; ends; duration; matrix; _ } = trace in
  if warmup < 0. || warmup >= duration then
    invalid_arg "Engine.run: warmup must be in [0, duration)";
  if Arnet_traffic.Matrix.nodes matrix <> Graph.node_count graph then
    invalid_arg "Engine.run: trace/graph size mismatch";
  let m = Graph.link_count graph in
  let capacity = Array.make m 0 in
  Graph.iter_links
    (fun l -> capacity.(l.Link.id) <- l.Link.capacity)
    graph;
  ignore (Atomic.fetch_and_add simulated_calls (Array.length calls) : int);
  let occupancy = Array.make m 0 in
  let departures : int array Event_queue.t = Event_queue.create () in
  let stats = Stats.empty ~nodes:(Graph.node_count graph) in
  (match observer with
  | Some f ->
    f
      (Arnet_obs.Event.Run_start
         { policy = policy.name;
           warmup;
           duration;
           nodes = Graph.node_count graph;
           links = m })
  | None -> ());
  let rec release_ids link_ids i =
    if i < Array.length link_ids then begin
      let id = Array.unsafe_get link_ids i in
      occupancy.(id) <- occupancy.(id) - 1;
      assert (occupancy.(id) >= 0);
      release_ids link_ids (i + 1)
    end
  in
  let release time link_ids =
    release_ids link_ids 0;
    match observer with
    | Some f -> f (Arnet_obs.Event.Departure { time; links = link_ids })
    | None -> ()
  in
  let rec occupy ids i =
    if i < Array.length ids then begin
      let id = Array.unsafe_get ids i in
      if id < 0 || id >= m then
        invalid_arg "Engine.run: policy routed over unknown link";
      if occupancy.(id) >= capacity.(id) then
        invalid_arg "Engine.run: policy routed over a full link";
      occupancy.(id) <- occupancy.(id) + 1;
      occupy ids (i + 1)
    end
  in
  (* the departure payload aliases the path's own immutable link_ids
     (see Path.t) — no per-admit copy; the deadline is read from the
     trace's packed [ends] column so no float is boxed *)
  let admit i (p : Path.t) =
    occupy p.Path.link_ids 0;
    Event_queue.push_at departures ~times:ends i p.Path.link_ids
  in
  let handle i (call : Trace.call) =
    (match observer with
    | None ->
      while Event_queue.next_due departures ~deadlines:times i do
        release_ids (Event_queue.pop_payload departures) 0
      done
    | Some _ ->
      Event_queue.pop_until departures ~time:call.Trace.time ~f:release);
    let measured = call.Trace.time >= warmup in
    (match observer with
    | Some f ->
      f
        (Arnet_obs.Event.Arrival
           { time = call.Trace.time;
             src = call.Trace.src;
             dst = call.Trace.dst;
             holding = call.Trace.holding })
    | None -> ());
    if measured then
      Stats.record_offered stats ~src:call.Trace.src ~dst:call.Trace.dst;
    match policy.decide ~occupancy ~call with
    | Lost ->
      (match observer with
      | Some f ->
        f
          (Arnet_obs.Event.Block
             { time = call.Trace.time;
               src = call.Trace.src;
               dst = call.Trace.dst })
      | None -> ());
      if measured then
        Stats.record_blocked stats ~src:call.Trace.src ~dst:call.Trace.dst
    | Routed p ->
      if Path.src p <> call.Trace.src || Path.dst p <> call.Trace.dst then
        invalid_arg "Engine.run: policy routed to wrong endpoints";
      admit i p;
      if measured || Option.is_some observer then begin
        let primary = policy.is_primary ~call p in
        (match observer with
        | Some f ->
          f
            (Arnet_obs.Event.Admit
               { time = call.Trace.time;
                 src = call.Trace.src;
                 dst = call.Trace.dst;
                 hops = Path.hops p;
                 primary;
                 links = p.Path.link_ids })
        | None -> ());
        if measured then
          if primary then Stats.record_primary stats
          else Stats.record_alternate stats ~hops:(Path.hops p)
      end
  in
  for i = 0 to Array.length calls - 1 do
    handle i (Array.unsafe_get calls i)
  done;
  (match observer with
  | Some f ->
    (* drain departures that fall inside the run so the trace balances *)
    Event_queue.pop_until departures ~time:duration ~f:release;
    f (Arnet_obs.Event.Run_end { time = duration; calls = Array.length calls })
  | None -> ());
  stats

let replicate_grid ~caller ?(domains = 1) ~seeds ~names ~context ~run () =
  if seeds = [] then invalid_arg (caller ^ ": no seeds");
  if domains < 1 then invalid_arg (caller ^ ": domains must be >= 1");
  let np = List.length names in
  if domains = 1 then begin
    (* one context per seed, shared by that seed's runs *)
    let acc = Array.make np [] in
    List.iter
      (fun seed ->
        let ctx = context seed in
        for pi = 0 to np - 1 do
          acc.(pi) <- run ctx pi :: acc.(pi)
        done)
      seeds;
    List.mapi (fun pi name -> (name, List.rev acc.(pi))) names
  end
  else begin
    (* shard at (seed x policy) granularity; every job rebuilds its own
       context from the seed, so no mutable state crosses domains and
       each run is bit-identical to its sequential twin *)
    let seed_arr = Array.of_list seeds in
    let name_arr = Array.of_list names in
    let ns = Array.length seed_arr in
    let jobs = List.init (ns * np) Fun.id in
    let results =
      try
        Arnet_pool.map ~domains
          (fun j -> run (context seed_arr.(j / np)) (j mod np))
          jobs
      with Arnet_pool.Worker { index; exn } ->
        raise
          (Replication_failure
             { seed = seed_arr.(index / np);
               policy = name_arr.(index mod np);
               exn })
    in
    let flat = Array.of_list results in
    List.mapi
      (fun pi name -> (name, List.init ns (fun si -> flat.((si * np) + pi))))
      names
  end

let replicate_fresh ?warmup ?mean_holding ?observe ?domains ~seeds ~duration
    ~graph ~matrix ~policies () =
  let names = List.map (fun p -> p.name) (policies ()) in
  (* a shared observer sink must see whole Run_start..Run_end frames in
     seed-major sequence, so observed replications stay on one domain *)
  let domains =
    match (observe, domains) with
    | Some _, Some d when d >= 1 -> Some 1
    | _ -> domains
  in
  let context seed =
    let rng = Rng.substream (Rng.create ~seed) "trace" in
    let trace = Trace.generate ?mean_holding ~rng ~duration matrix in
    let fresh = policies () in
    if List.map (fun p -> p.name) fresh <> names then
      invalid_arg "Engine.replicate_fresh: factory changed policy names";
    (seed, trace, Array.of_list fresh)
  in
  let run_one (seed, trace, fresh) pi =
    let policy = fresh.(pi) in
    let observer =
      match observe with
      | None -> None
      | Some choose -> choose ~seed ~policy:policy.name
    in
    run ?warmup ?observer ~graph ~policy trace
  in
  replicate_grid ~caller:"Engine.replicate" ?domains ~seeds ~names ~context
    ~run:run_one ()

let replicate ?warmup ?mean_holding ?observe ?domains ~seeds ~duration ~graph
    ~matrix ~policies () =
  replicate_fresh ?warmup ?mean_holding ?observe ?domains ~seeds ~duration
    ~graph ~matrix
    ~policies:(fun () -> policies)
    ()
