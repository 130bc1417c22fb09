type t = {
  registry : Metrics.t;
  started_at : float;
  mutable events : int;
  by_kind : (string, Metrics.counter) Hashtbl.t;
  occupancy : (int, Metrics.gauge) Hashtbl.t;
  rejected : (int, Metrics.counter) Hashtbl.t;
  capacity : (int, Metrics.gauge) Hashtbl.t;
  reserve : (int, Metrics.gauge) Hashtbl.t;
  pair_accepted : (int * int, Metrics.counter) Hashtbl.t;
  pair_blocked : (int * int, Metrics.counter) Hashtbl.t;
  link_failed : (int, Metrics.gauge) Hashtbl.t;
  failovers : Metrics.counter;
  offered : Metrics.counter;
  blocked : Metrics.counter;
  admitted_primary : Metrics.counter;
  admitted_alternate : Metrics.counter;
  holding : Metrics.histogram;
  hops : Metrics.histogram;
  events_per_second : Metrics.gauge;
  wall_seconds : Metrics.gauge;
}

let create registry =
  { registry;
    started_at = Unix.gettimeofday ();
    events = 0;
    by_kind = Hashtbl.create 8;
    occupancy = Hashtbl.create 64;
    rejected = Hashtbl.create 64;
    capacity = Hashtbl.create 64;
    reserve = Hashtbl.create 64;
    pair_accepted = Hashtbl.create 256;
    pair_blocked = Hashtbl.create 256;
    link_failed = Hashtbl.create 64;
    failovers =
      Metrics.counter registry
        ~help:"Calls admitted around a failed primary path"
        "arnet_failover_total";
    offered =
      Metrics.counter registry ~help:"Calls offered (arrivals)"
        "arnet_calls_offered_total";
    blocked =
      Metrics.counter registry ~help:"Calls lost" "arnet_calls_blocked_total";
    admitted_primary =
      Metrics.counter registry
        ~labels:[ ("route", "primary") ]
        ~help:"Calls admitted by route class" "arnet_calls_admitted_total";
    admitted_alternate =
      Metrics.counter registry
        ~labels:[ ("route", "alternate") ]
        ~help:"Calls admitted by route class" "arnet_calls_admitted_total";
    holding =
      Metrics.histogram registry
        ~buckets:(Metrics.log_buckets ~lo:0.001 ~hi:1000. ~per_decade:1)
        ~help:"Holding time of offered calls (simulated time units)"
        "arnet_call_holding_time";
    hops =
      Metrics.histogram registry
        ~buckets:[| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16. |]
        ~help:"Path length of admitted calls (hops)" "arnet_admitted_hops";
    events_per_second =
      Metrics.gauge registry
        ~help:"Observed event throughput over the wall clock"
        "arnet_events_per_second";
    wall_seconds =
      Metrics.gauge registry ~help:"Wall-clock seconds since sink creation"
        "arnet_wall_seconds" }

let kind_counter t kind =
  match Hashtbl.find_opt t.by_kind kind with
  | Some c -> c
  | None ->
    let c =
      Metrics.counter t.registry
        ~labels:[ ("kind", kind) ]
        ~help:"Simulation events by kind" "arnet_events_total"
    in
    Hashtbl.add t.by_kind kind c;
    c

let rejected_counter t link =
  match Hashtbl.find_opt t.rejected link with
  | Some c -> c
  | None ->
    let c =
      Metrics.counter t.registry
        ~labels:[ ("link", string_of_int link) ]
        ~help:"Alternate-routed calls refused by trunk reservation"
        "arnet_alt_rejected_total"
    in
    Hashtbl.add t.rejected link c;
    c

(* per-(src,dst) counters, cached like the per-link series so the
   per-event cost stays a hash lookup *)
let pair_counter t table name help (src, dst) =
  match Hashtbl.find_opt table (src, dst) with
  | Some c -> c
  | None ->
    let c =
      Metrics.counter t.registry
        ~labels:[ ("src", string_of_int src); ("dst", string_of_int dst) ]
        ~help name
    in
    Hashtbl.add table (src, dst) c;
    c

let pair_accepted t pair =
  pair_counter t t.pair_accepted "arnet_pair_accepted_total"
    "Calls admitted, by origin-destination pair" pair

let pair_blocked t pair =
  pair_counter t t.pair_blocked "arnet_pair_blocked_total"
    "Calls lost, by origin-destination pair" pair

let network_gauge t table name help link =
  match Hashtbl.find_opt table link with
  | Some g -> g
  | None ->
    let g =
      Metrics.gauge t.registry
        ~labels:[ ("link", string_of_int link) ]
        ~help name
    in
    Hashtbl.add table link g;
    g

let set_links gauge values =
  Array.iteri (fun k v -> Metrics.set (gauge k) (float_of_int v)) values

let set_network t ~capacities ~reserves =
  set_links
    (network_gauge t t.capacity "arnet_link_capacity"
       "Circuits installed on the link")
    capacities;
  set_links
    (network_gauge t t.reserve "arnet_link_reserve"
       "Trunk-reservation protection level r^k on the link")
    reserves

let set_failed_links t ~link_count failed =
  let flags = Array.make link_count 0 in
  List.iter (fun k -> flags.(k) <- 1) failed;
  set_links
    (network_gauge t t.link_failed "arnet_link_failed"
       "1 while the link is failed, else 0")
    flags

let set_occupancy t occupancy =
  set_links
    (network_gauge t t.occupancy "arnet_link_occupancy"
       "Calls in progress on the link")
    occupancy

(* counters only move forward; syncing to an externally held total is
   the shared idiom for state the sink does not observe event-by-event *)
let sync_failovers t total =
  let target = float_of_int total in
  let current = Metrics.counter_value t.failovers in
  if target > current then Metrics.inc_by t.failovers (target -. current)

let refresh_rates t =
  let wall = Unix.gettimeofday () -. t.started_at in
  Metrics.set t.wall_seconds wall;
  Metrics.set t.events_per_second
    (if wall > 0. then float_of_int t.events /. wall else 0.)

let emit t ev =
  t.events <- t.events + 1;
  Metrics.inc (kind_counter t (Event.kind ev));
  match ev with
  | Event.Arrival { holding; _ } ->
    Metrics.inc t.offered;
    (* the daemon does not know holding times and sends 0 *)
    if holding > 0. then Metrics.observe t.holding holding
  | Event.Block { src; dst; _ } ->
    Metrics.inc t.blocked;
    Metrics.inc (pair_blocked t (src, dst))
  | Event.Admit { src; dst; primary; hops; _ } ->
    Metrics.inc (if primary then t.admitted_primary else t.admitted_alternate);
    Metrics.inc (pair_accepted t (src, dst));
    Metrics.observe t.hops (float_of_int hops)
  | Event.Alternate_rejected { link; _ } ->
    Metrics.inc (rejected_counter t link)
  | Event.Departure _ | Event.Run_start _ | Event.Run_end _
  | Event.Primary_attempt _ ->
    ()

let sink t =
  Sink.make (emit t)
    ~flush:(fun () -> refresh_rates t)
    ~close:(fun () -> refresh_rates t)

let events t = t.events
let registry t = t.registry
