module M = Arnet_obs.Metrics
module J = Arnet_obs.Jsonu

type slow_entry = {
  at : float;
  verb : string;
  verdict : string;
  seconds : float;
}

type t = {
  registry : M.t;
  net : Arnet_obs.Metrics_sink.t;
  started_at : float;
  commands : (string, M.counter) Hashtbl.t;
  latency : (string * string, M.histogram) Hashtbl.t;
  batch_size : M.histogram;
  epoch : M.gauge;
  admitted : M.counter;
  blocked : M.counter;
  errors : M.counter;
  torn_down : M.counter;
  reloads : M.counter;
  active : M.gauge;
  occupancy : M.gauge;
  failed : M.gauge;
  hops : M.histogram;
  scrapes : M.counter;
  uptime : M.gauge;
  gc_minor_words : M.gauge;
  gc_major_words : M.gauge;
  gc_major_collections : M.gauge;
  live_words : M.gauge;
  slow_threshold : float;
  slow : slow_entry Arnet_obs.Ring.t;  (** threshold-crossing commands *)
}

let create ?(slow_threshold = 0.010) () =
  let registry = M.create () in
  { registry;
    net = Arnet_obs.Metrics_sink.create registry;
    started_at = Unix.gettimeofday ();
    commands = Hashtbl.create 8;
    latency = Hashtbl.create 16;
    batch_size =
      M.histogram registry ~help:"Commands per binary frame"
        ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.;
                    2048.; 4096. |]
        "arnet_batch_size";
    epoch =
      M.gauge registry
        ~help:"Control-plane epoch: bumped by FAIL/REPAIR/RELOAD/LINK/DRAIN"
        "arnet_service_epoch";
    admitted =
      M.counter registry ~help:"Calls admitted" "arn_service_admitted_total";
    blocked =
      M.counter registry ~help:"Calls refused" "arn_service_blocked_total";
    errors =
      M.counter registry ~help:"Commands answered with ERR"
        "arn_service_errors_total";
    torn_down =
      M.counter registry ~help:"Calls released by TEARDOWN"
        "arn_service_teardown_total";
    reloads =
      M.counter registry ~help:"Protection-level recomputations"
        "arn_service_reloads_total";
    active =
      M.gauge registry ~help:"Calls currently holding circuits"
        "arn_service_active_calls";
    occupancy =
      M.gauge registry ~help:"Circuits held over all links"
        "arn_service_occupancy_circuits";
    failed =
      M.gauge registry ~help:"Links currently failed"
        "arn_service_failed_links";
    hops =
      M.histogram registry ~help:"Admitted path length (hops)"
        ~buckets:[| 1.; 2.; 3.; 4.; 6.; 8.; 12. |]
        "arn_service_admitted_hops";
    scrapes =
      M.counter registry ~help:"Telemetry scrapes served"
        "arn_process_scrapes_total";
    uptime =
      M.gauge registry ~help:"Seconds since the daemon started"
        "arn_process_uptime_seconds";
    gc_minor_words =
      M.gauge registry ~help:"Words allocated in the minor heap (lifetime)"
        "arn_process_gc_minor_words";
    gc_major_words =
      M.gauge registry ~help:"Words allocated in the major heap (lifetime)"
        "arn_process_gc_major_words";
    gc_major_collections =
      M.gauge registry ~help:"Completed major collection cycles"
        "arn_process_gc_major_collections";
    live_words =
      M.gauge registry ~help:"Live words on the heap at last scrape"
        "arn_process_live_words";
    slow_threshold;
    slow = Arnet_obs.Ring.create ~capacity:32 }

let registry t = t.registry
let observer t ev = Arnet_obs.Metrics_sink.emit t.net ev
let slow_threshold t = t.slow_threshold

let verb = function
  | Wire.Setup _ -> "setup"
  | Wire.Teardown _ -> "teardown"
  | Wire.Fail _ -> "fail"
  | Wire.Repair _ -> "repair"
  | Wire.Reload -> "reload"
  | Wire.Link_add _ -> "link-add"
  | Wire.Link_del _ -> "link-del"
  | Wire.Stats -> "stats"
  | Wire.Drain -> "drain"
  | Wire.Quit -> "quit"
  | Wire.Hello _ -> "hello"

let verdict = function
  | Wire.Admitted _ -> "admitted"
  | Wire.Blocked -> "blocked"
  | Wire.Err _ -> "error"
  | Wire.Done | Wire.Reloaded _ | Wire.Patched _ | Wire.Stats_reply _ -> "ok"

let command_counter t v =
  match Hashtbl.find_opt t.commands v with
  | Some c -> c
  | None ->
    let c =
      M.counter t.registry ~labels:[ ("verb", v) ]
        ~help:"Wire commands handled" "arn_service_commands_total"
    in
    Hashtbl.add t.commands v c;
    c

let latency_buckets = M.log_buckets ~lo:1e-6 ~hi:10.0 ~per_decade:3

let latency_histogram t key =
  match Hashtbl.find_opt t.latency key with
  | Some h -> h
  | None ->
    let v, d = key in
    let h =
      M.histogram t.registry
        ~labels:[ ("verb", v); ("verdict", d) ]
        ~help:"Wire command handling latency, wall seconds"
        ~buckets:latency_buckets "arn_command_latency_seconds"
    in
    Hashtbl.add t.latency key h;
    h

let record_latency t ~verb ~verdict seconds =
  M.observe (latency_histogram t (verb, verdict)) seconds;
  if seconds >= t.slow_threshold then begin
    Arnet_obs.Ring.push t.slow
      { at = Unix.gettimeofday (); verb; verdict; seconds };
    true
  end
  else false

let slow_log t = List.rev (Arnet_obs.Ring.contents t.slow)

let record t cmd resp =
  M.inc (command_counter t (verb cmd));
  (match resp with
  | Wire.Admitted { path; _ } ->
    M.inc t.admitted;
    M.observe t.hops (float_of_int (List.length path - 1))
  | Wire.Blocked -> M.inc t.blocked
  | Wire.Err _ -> M.inc t.errors
  | Wire.Reloaded _ | Wire.Patched _ -> ()
  | Wire.Done -> (
    match cmd with Wire.Teardown _ -> M.inc t.torn_down | _ -> ())
  | Wire.Stats_reply _ -> ())

let record_malformed t = M.inc t.errors

let record_batch t size = M.observe t.batch_size (float_of_int size)

let set_epoch t n = M.set t.epoch (float_of_int n)

(* State changes only inside commands, so the series mirroring it are
   set here, per scrape, rather than after every command *)
let to_prometheus t st =
  M.set t.uptime (Unix.gettimeofday () -. t.started_at);
  (* the monotone counters come from quick_stat, read before the heap
     walk below so the forced major it triggers is not charged to the
     scrape that observed it *)
  let gc = Gc.quick_stat () in
  M.set t.gc_minor_words gc.Gc.minor_words;
  M.set t.gc_major_words gc.Gc.major_words;
  M.set t.gc_major_collections (float_of_int gc.Gc.major_collections);
  (* quick_stat reports live_words as 0; the full walk is scrape-time
     only, never on the command path *)
  M.set t.live_words (float_of_int (Gc.stat ()).Gc.live_words);
  let s = State.stats st in
  (* synced rather than counted per command: [--reload-every] reloads
     happen inside State without a RELOAD on the wire, and only State's
     decision loop can classify a failover *)
  M.inc_by t.reloads (float_of_int s.Wire.reloads -. M.counter_value t.reloads);
  Arnet_obs.Metrics_sink.sync_failovers t.net s.Wire.failovers;
  M.set t.active (float_of_int s.Wire.active);
  let occupancy = State.occupancy st in
  M.set t.occupancy (float_of_int (Array.fold_left ( + ) 0 occupancy));
  M.set t.failed (float_of_int (List.length s.Wire.failed));
  let capacities =
    Array.map
      (fun l -> l.Arnet_topology.Link.capacity)
      (Arnet_topology.Graph.links (State.graph st))
  in
  (* per link id: a removed link keeps its id at capacity 0, so its
     gauges read 0 *)
  Arnet_obs.Metrics_sink.set_network t.net ~capacities
    ~reserves:(State.reserves st);
  Arnet_obs.Metrics_sink.set_failed_links t.net
    ~link_count:(Array.length capacities) s.Wire.failed;
  Arnet_obs.Metrics_sink.set_occupancy t.net occupancy;
  Arnet_obs.Metrics_sink.refresh_rates t.net;
  M.to_prometheus t.registry

let scrape t st =
  M.inc t.scrapes;
  to_prometheus t st

let slow_entry_json e =
  J.Obj
    [ ("at", J.Float e.at);
      ("verb", J.String e.verb);
      ("verdict", J.String e.verdict);
      ("seconds", J.Float e.seconds) ]

let statz t st =
  let s = State.stats st in
  J.Obj
    [ ("uptime_s", J.Float (Unix.gettimeofday () -. t.started_at));
      ("clock", J.Float (State.clock st));
      ("accepted", J.Int s.Wire.accepted);
      ("blocked", J.Int s.Wire.blocked);
      ("torn_down", J.Int s.Wire.torn_down);
      ("dropped", J.Int s.Wire.dropped);
      ("failovers", J.Int s.Wire.failovers);
      ("active", J.Int s.Wire.active);
      ("reloads", J.Int s.Wire.reloads);
      ("draining", J.Bool s.Wire.draining);
      ("failed_links", J.List (List.map (fun k -> J.Int k) s.Wire.failed));
      ("occupancy_circuits",
       J.Int (Array.fold_left ( + ) 0 (State.occupancy st)));
      ("slow_threshold_s", J.Float t.slow_threshold);
      ("slow_commands", J.List (List.map slow_entry_json (slow_log t))) ]
