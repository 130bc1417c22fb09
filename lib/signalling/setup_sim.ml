open Arnet_topology
open Arnet_paths
open Arnet_sim
open Arnet_core

type stats = {
  offered : int;
  blocked : int;
  carried_primary : int;
  carried_alternate : int;
  glare_events : int;
  setup_attempts : int;
  total_setup_latency : float;
}

let blocking s =
  if s.offered = 0 then 0. else float_of_int s.blocked /. float_of_int s.offered

let mean_setup_latency s =
  let carried = s.carried_primary + s.carried_alternate in
  if carried = 0 then 0. else s.total_setup_latency /. float_of_int carried

(* one in-flight call set-up *)
type setup = {
  arrival_time : float;
  holding : float;
  measured : bool;
  mutable remaining : (Path.t * bool) list;  (* candidates, is_primary *)
  mutable path : Path.t;
  mutable is_primary : bool;
  mutable booked : int list;  (* links booked so far on the backward pass *)
}

type event =
  | Arrival of int  (* call index into the trace *)
  | Forward of setup * int  (* about to check link [i] of the path *)
  | Backward of setup * int  (* about to book link [i]; books run from
                                the last link down to 0 *)
  | Established of setup
  | Departure of int array

let run ?(warmup = 10.) ?(hop_latency = 0.01) ~graph ~routes ~reserves
    ~allow_alternates trace =
  let { Trace.times; srcs; dsts; holdings; duration; matrix; _ } = trace in
  if hop_latency < 0. || not (Float.is_finite hop_latency) then
    invalid_arg "Setup_sim.run: bad hop latency";
  if warmup < 0. || warmup >= duration then
    invalid_arg "Setup_sim.run: warmup must be in [0, duration)";
  if Arnet_traffic.Matrix.nodes matrix <> Graph.node_count graph then
    invalid_arg "Setup_sim.run: trace/graph size mismatch";
  let capacities =
    Array.map (fun (l : Link.t) -> l.capacity) (Graph.links graph)
  in
  let admission = Admission.make ~capacities ~reserves in
  let occupancy = Array.make (Graph.link_count graph) 0 in
  let queue : event Event_queue.t = Event_queue.create () in
  let offered = ref 0 and blocked = ref 0 in
  let carried_primary = ref 0 and carried_alternate = ref 0 in
  let glare_events = ref 0 and setup_attempts = ref 0 in
  let total_setup_latency = ref 0. in
  (* each pair's attempt list, primary first, taken from the table once
     per run: the table builds its paths on every request *)
  let n = Graph.node_count graph in
  let attempts =
    Array.init (n * n) (fun k ->
        let src = k / n and dst = k mod n in
        if src = dst || not (Route_table.has_route routes ~src ~dst) then []
        else
          (Route_table.primary routes ~src ~dst, true)
          ::
          (if allow_alternates then
             List.map
               (fun p -> (p, false))
               (Route_table.alternates routes ~src ~dst)
           else []))
  in
  Array.iteri (fun i time -> Event_queue.push queue ~time (Arrival i)) times;
  let link_admits s k =
    if s.is_primary then Admission.link_admits_primary admission ~occupancy k
    else Admission.link_admits_alternate admission ~occupancy k
  in
  (* start the next candidate path (or lose the call) at [time] *)
  let rec next_attempt s ~time =
    match s.remaining with
    | [] -> if s.measured then incr blocked
    | (path, is_primary) :: rest ->
      s.remaining <- rest;
      s.path <- path;
      s.is_primary <- is_primary;
      s.booked <- [];
      if s.measured then incr setup_attempts;
      Event_queue.push queue ~time (Forward (s, 0))
  and handle time = function
    | Arrival i ->
      let measured = times.(i) >= warmup in
      if measured then incr offered;
      (match attempts.((srcs.(i) * n) + dsts.(i)) with
      | [] -> if measured then incr blocked
      | (primary, _) :: _ as candidates ->
        let s =
          { arrival_time = times.(i);
            holding = holdings.(i);
            measured;
            remaining = candidates;
            path = primary;
            is_primary = true;
            booked = [] }
        in
        next_attempt s ~time)
    | Forward (s, i) ->
      let ids = s.path.Path.link_ids in
      if not (link_admits s ids.(i)) then
        (* crankback: the packet returns over the i links it crossed *)
        next_attempt s ~time:(time +. (float_of_int i *. hop_latency))
      else if i + 1 < Array.length ids then
        Event_queue.push queue
          ~time:(time +. hop_latency)
          (Forward (s, i + 1))
      else
        (* reached the destination; turn around and book backwards *)
        Event_queue.push queue
          ~time:(time +. hop_latency)
          (Backward (s, Array.length ids - 1))
    | Backward (s, i) ->
      let ids = s.path.Path.link_ids in
      let k = ids.(i) in
      if link_admits s k then begin
        occupancy.(k) <- occupancy.(k) + 1;
        s.booked <- k :: s.booked;
        if i = 0 then
          Event_queue.push queue ~time:(time +. hop_latency) (Established s)
        else
          Event_queue.push queue ~time:(time +. hop_latency)
            (Backward (s, i - 1))
      end
      else begin
        (* glare: the capacity vanished between check and booking *)
        if s.measured then incr glare_events;
        List.iter (fun k -> occupancy.(k) <- occupancy.(k) - 1) s.booked;
        s.booked <- [];
        next_attempt s ~time:(time +. (float_of_int i *. hop_latency))
      end
    | Established s ->
      if s.measured then begin
        if s.is_primary then incr carried_primary else incr carried_alternate;
        total_setup_latency := !total_setup_latency +. (time -. s.arrival_time)
      end;
      Event_queue.push queue ~time:(time +. s.holding)
        (Departure (Array.of_list s.booked))
    | Departure ids ->
      Array.iter
        (fun k ->
          occupancy.(k) <- occupancy.(k) - 1;
          assert (occupancy.(k) >= 0))
        ids
  in
  let rec drain () =
    match Event_queue.pop queue with
    | None -> ()
    | Some (time, ev) ->
      handle time ev;
      drain ()
  in
  drain ();
  { offered = !offered;
    blocked = !blocked;
    carried_primary = !carried_primary;
    carried_alternate = !carried_alternate;
    glare_events = !glare_events;
    setup_attempts = !setup_attempts;
    total_setup_latency = !total_setup_latency }

let compare_with_atomic ?(warmup = 10.) ~graph ~routes ~reserves trace =
  let signalled =
    run ~warmup ~hop_latency:0. ~graph ~routes ~reserves
      ~allow_alternates:true trace
  in
  let atomic =
    Engine.run ~warmup ~graph
      ~policy:(Scheme.controlled ~reserves routes)
      trace
  in
  signalled.blocked = atomic.Stats.blocked
  && signalled.carried_primary = atomic.Stats.carried_primary
  && signalled.carried_alternate = atomic.Stats.carried_alternate
  && signalled.glare_events = 0
