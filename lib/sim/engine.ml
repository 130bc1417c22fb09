open Arnet_topology
open Arnet_paths

type outcome = Routed of Path.t | Lost

type policy = {
  name : string;
  decide : occupancy:int array -> Trace.t -> int -> outcome;
  primary : Trace.t -> int -> Path.t option;
}

(* process-wide odometer: one Array.length per run, so the per-call hot
   path pays nothing; the allocation checks read the delta to count
   calls *)
let simulated_calls = ref 0

let calls_simulated () = !simulated_calls

(* closure-free per-link walks: defined once per run (they close over
   the run's occupancy/capacity arrays) and recurse with int arguments
   only, so the admit/release hot path allocates nothing *)
let run ?(warmup = 10.) ?observer ?(script = Script.empty) ~graph ~policy
    trace =
  let { Trace.times; srcs; dsts; holdings; ends; order; classes; bandwidths;
        duration; matrix; _ } =
    trace
  in
  (* written so that a NaN warm-up fails too *)
  if not (warmup >= 0. && warmup < duration) then
    invalid_arg "Engine.run: warmup must be in [0, duration)";
  if Arnet_traffic.Matrix.nodes matrix <> Graph.node_count graph then
    invalid_arg "Engine.run: trace/graph size mismatch";
  let m = Graph.link_count graph in
  if Script.max_link script >= m then
    invalid_arg "Engine.run: script mentions a link outside the graph";
  let capacity = Array.make m 0 in
  Graph.iter_links
    (fun l -> capacity.(l.Link.id) <- l.Link.capacity)
    graph;
  let n = Array.length times in
  simulated_calls := !simulated_calls + n;
  let occupancy = Array.make m 0 in
  (* The departure walk.  [order] lists the calls by end time, ties by
     index, and [!next] is its first entry not yet passed.  Passing the
     entry of call [j] releases what [held.(j)] holds: the routed path's
     own immutable link_ids (see Path.t), aliased on admit, so an admit
     copies nothing.  A blocked call holds [||], and so does a call a
     FAIL dropped.  The walk passes entry [j] only once call [j] has
     arrived: a call whose end rounds to its arrival time is released
     at the next arrival, never before its own decision. *)
  let held = Array.make n [||] in
  let next = ref 0 in
  let stats =
    Stats.empty ~nodes:(Graph.node_count graph)
      ~classes:(Array.length bandwidths)
  in
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
  let rec release_ids ids bw j =
    if j < Array.length ids then begin
      let id = Array.unsafe_get ids j in
      occupancy.(id) <- occupancy.(id) - bw;
      assert (occupancy.(id) >= 0);
      release_ids ids bw (j + 1)
    end
  in
  let depart time j =
    let ids = held.(j) in
    if Array.length ids > 0 then begin
      release_ids ids bandwidths.(classes.(j)) 0;
      match observer with
      | Some f -> f (Arnet_obs.Event.Departure { time; links = ids })
      | None -> ()
    end
  in
  (* passes every entry of a call [j < arrived] that ends by [until];
     ties go in index order, so the first entry of a call not yet
     arrived ends the walk *)
  let depart_until until arrived =
    while
      !next < n
      &&
      let j = order.(!next) in
      j < arrived && ends.(j) <= until
    do
      let j = order.(!next) in
      depart ends.(j) j;
      incr next
    done
  in
  let rec occupy ids bw j =
    if j < Array.length ids then begin
      let id = Array.unsafe_get ids j in
      if id < 0 || id >= m then
        invalid_arg "Engine.run: policy routed over unknown link";
      if occupancy.(id) + bw > capacity.(id) then
        invalid_arg "Engine.run: policy routed over a full link";
      occupancy.(id) <- occupancy.(id) + bw;
      occupy ids bw (j + 1)
    end
  in
  (* the script: a failed link holds its full capacity, so every
     admission rule refuses it, until its repair sets it back to 0 *)
  let events = Script.to_array script in
  let failed = Array.make m false in
  let cursor = ref 0 in
  let rec crosses_failed ids j =
    j < Array.length ids
    && (failed.(Array.unsafe_get ids j) || crosses_failed ids (j + 1))
  in
  (* no call in flight crosses a link that was already down, so the
     calls crossing a failed link are the ones crossing [k]; the calls in
     flight are the held ones the walk has not passed *)
  let fail (e : Script.event) =
    let k = e.Script.link in
    if not failed.(k) then begin
      failed.(k) <- true;
      for p = !next to n - 1 do
        let j = order.(p) in
        if crosses_failed held.(j) 0 then begin
          depart e.Script.time j;
          held.(j) <- [||];
          if e.Script.time >= warmup then
            stats.Stats.dropped <- stats.Stats.dropped + 1
        end
      done;
      occupancy.(k) <- capacity.(k)
    end
  in
  let apply (e : Script.event) =
    match e.Script.action with
    | Script.Fail -> fail e
    | Script.Repair ->
      let k = e.Script.link in
      if failed.(k) then begin
        failed.(k) <- false;
        occupancy.(k) <- 0
      end
  in
  (* the first call at or after the next script event: the one int the
     per-call loop compares against *)
  let first_call_from i =
    if !cursor >= Array.length events then max_int
    else begin
      let time = events.(!cursor).Script.time in
      let j = ref i in
      while !j < n && times.(!j) < time do incr j done;
      !j
    end
  in
  let next_event_call = ref (first_call_from 0) in
  (* departures due by each script event go first, then the events due
     by the arrival, in script order *)
  let run_script i =
    while
      !cursor < Array.length events
      && events.(!cursor).Script.time <= times.(i)
    do
      let e = events.(!cursor) in
      depart_until e.Script.time i;
      apply e;
      incr cursor
    done;
    next_event_call := first_call_from i
  in
  for i = 0 to n - 1 do
    if i >= !next_event_call then run_script i;
    (match observer with
    | None ->
      (* [depart_until times.(i) i], inline: a float argument would be
         boxed *)
      while
        !next < n
        &&
        let j = order.(!next) in
        j < i && ends.(j) <= times.(i)
      do
        let j = order.(!next) in
        let ids = held.(j) in
        if Array.length ids > 0 then
          release_ids ids bandwidths.(classes.(j)) 0;
        incr next
      done
    | Some _ -> depart_until times.(i) i);
    let src = srcs.(i) and dst = dsts.(i) in
    let cls = classes.(i) in
    let bw = bandwidths.(cls) in
    let measured = times.(i) >= warmup in
    (match observer with
    | Some f ->
      f
        (Arnet_obs.Event.Arrival
           { time = times.(i); src; dst; holding = holdings.(i) })
    | None -> ());
    if measured then Stats.record_offered stats ~src ~dst ~cls ~bandwidth:bw;
    match policy.decide ~occupancy trace i with
    | Lost ->
      (match observer with
      | Some f -> f (Arnet_obs.Event.Block { time = times.(i); src; dst })
      | None -> ());
      if measured then Stats.record_blocked stats ~src ~dst ~cls ~bandwidth:bw
    | Routed p ->
      if Path.src p <> src || Path.dst p <> dst then
        invalid_arg "Engine.run: policy routed to wrong endpoints";
      let ids = p.Path.link_ids in
      occupy ids bw 0;
      held.(i) <- ids;
      if measured || Option.is_some observer then begin
        let primary = policy.primary trace i in
        let on_primary =
          match primary with
          | Some q -> q == p || Path.equal q p
          | None -> false
        in
        (match observer with
        | Some f ->
          f
            (Arnet_obs.Event.Admit
               { time = times.(i);
                 src;
                 dst;
                 hops = Path.hops p;
                 primary = on_primary;
                 links = ids })
        | None -> ());
        if measured then
          if on_primary then Stats.record_primary stats
          else begin
            Stats.record_alternate stats ~hops:(Path.hops p);
            match primary with
            | Some q when crosses_failed q.Path.link_ids 0 ->
              stats.Stats.failovers <- stats.Stats.failovers + 1
            | _ -> ()
          end
      end
  done;
  (match observer with
  | Some f ->
    (* drain departures that fall inside the run so the trace balances *)
    depart_until duration n;
    f (Arnet_obs.Event.Run_end { time = duration; calls = n })
  | None -> ());
  stats

let replicate_grid ~caller ~seeds ~names ~context ~run () =
  if seeds = [] then invalid_arg (caller ^ ": no seeds");
  let np = List.length names in
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

let replicate_fresh ?warmup ?observe ?script ~seeds ~duration ~graph ~matrix
    ~policies () =
  let names = List.map (fun p -> p.name) (policies ()) in
  let context seed =
    let rng = Rng.substream (Rng.create ~seed) "trace" in
    let trace = Trace.generate ~rng ~duration matrix in
    let script = Option.map (fun f -> f ~seed) script in
    let fresh = policies () in
    if List.map (fun p -> p.name) fresh <> names then
      invalid_arg "Engine.replicate_fresh: factory changed policy names";
    (seed, trace, script, Array.of_list fresh)
  in
  let run_one (seed, trace, script, fresh) pi =
    let policy = fresh.(pi) in
    let observer =
      match observe with
      | None -> None
      | Some choose -> choose ~seed ~policy:policy.name
    in
    run ?warmup ?observer ?script ~graph ~policy trace
  in
  replicate_grid ~caller:"Engine.replicate" ~seeds ~names ~context
    ~run:run_one ()

let replicate ?warmup ?observe ~seeds ~duration ~graph ~matrix ~policies () =
  replicate_fresh ?warmup ?observe ~seeds ~duration ~graph ~matrix
    ~policies:(fun () -> policies)
    ()
