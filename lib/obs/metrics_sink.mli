(** The engine-to-metrics bridge: a sink that keeps a {!Metrics.t}
    registry current as simulation events stream through it.

    Maintained series:
    - [arnet_events_total{kind=...}] — every event, by kind
    - [arnet_calls_offered_total], [arnet_calls_blocked_total],
      [arnet_calls_admitted_total{route="primary"|"alternate"}]
    - [arnet_alt_rejected_total{link=...}] — per-link trunk-reservation
      rejections
    - [arnet_link_occupancy{link=...}] — live occupancy gauge, set
      through {!set_occupancy} by an owner that holds the occupancy
      itself; events never move it
    - [arnet_pair_accepted_total{src,dst}],
      [arnet_pair_blocked_total{src,dst}] — per-O-D-pair outcomes
    - [arnet_link_capacity{link=...}], [arnet_link_reserve{link=...}] —
      static/reload-time network shape, set through {!set_network}
    - [arnet_link_failed{link=...}] — 0/1 liveness gauge, set through
      {!set_failed_links}
    - [arnet_failover_total] — calls admitted around a failed primary,
      synced through {!sync_failovers}
    - [arnet_call_holding_time] — log-bucket histogram of the
      positive holding times (the daemon's arrivals carry none)
    - [arnet_admitted_hops] — path-length histogram
    - [arnet_events_per_second], [arnet_wall_seconds] — wall-clock
      throughput, refreshed on [flush]/[close] and by {!refresh_rates}

    Per-link and per-pair series are cached in hash tables, so an event
    costs a lookup or two, not O(registered series). *)

type t

val create : Metrics.t -> t
(** Registers the series above into the given registry (names must not
    already be taken by other types). *)

val emit : t -> Event.t -> unit
val sink : t -> Sink.t

(** {1 Per-link gauges set by the owner}

    Each setter takes one value per link id the network has.  A link
    id names one link for the owner's whole life (the daemon keeps a
    removed link at its id with capacity 0), so every gauge set keeps
    naming its link. *)

val set_network : t -> capacities:int array -> reserves:int array -> unit
(** Publish the per-link capacity and protection-level gauges, indexed
    by link id.  Events do not carry the network shape, so the owner
    (the daemon on scrape, [arn sim] before its snapshot) pushes it
    here whenever levels may have changed. *)

val set_failed_links : t -> link_count:int -> int list -> unit
(** Publish the per-link 0/1 [arnet_link_failed] gauges: every link in
    [0, link_count) reads 0 except the listed failed ids.  Like
    {!set_network}, pushed by the owner whenever liveness may have
    changed (the daemon syncs it per scrape). *)

val set_occupancy : t -> int array -> unit
(** Publish [arnet_link_occupancy] from the owner's own per-link
    occupancy; the daemon sets it per scrape.  Events never move it: a
    replication loop emits the events of many runs into one sink, so
    counting them would sum the runs' occupancy. *)

val refresh_rates : t -> unit
(** Bring [arnet_wall_seconds] and [arnet_events_per_second] current,
    as [flush] and [close] do, for an owner that calls {!emit}
    directly. *)

val sync_failovers : t -> int -> unit
(** Advance [arnet_failover_total] to the given running total (counters
    never move backward; a smaller total is ignored). *)

val events : t -> int
(** Events seen so far. *)

val registry : t -> Metrics.t
