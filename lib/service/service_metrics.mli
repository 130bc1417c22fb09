(** Server-side metrics, on the {!Arnet_obs.Metrics} registry.

    One record per daemon, holding every family the telemetry endpoint
    exposes:

    - [arn_service_*] — command/verdict counters and the admitted-hops
      histogram, counted per command by {!record}; the reload counter
      and the active-call, total-occupancy and failed-link gauges,
      which mirror {!State} and are set per scrape by
      {!to_prometheus};
    - [arn_command_latency_seconds{verb,verdict}] — log-bucket
      per-command handling latency, fed by the server's monotonic
      timer, with a keep-newest {!Arnet_obs.Ring} of the 32 newest
      threshold-crossing commands behind it (the slow log);
    - [arn_process_*] — uptime, GC counters and live-heap words,
      refreshed per scrape;
    - the [arnet_*] network series of {!Arnet_obs.Metrics_sink}
      (per-link occupancy/capacity/reserve, per-pair accept/block,
      per-link alternate refusals), registered on the same registry so
      [arn serve --telemetry] and [arn sim --metrics] expose one
      registry shape.  Feed the sink by passing {!observer} to
      {!State.create}. *)

type t

type slow_entry = {
  at : float;  (** wall-clock time the command completed *)
  verb : string;
  verdict : string;
  seconds : float;  (** handling latency *)
}

val create : ?slow_threshold:float -> unit -> t
(** [slow_threshold] (seconds, default 10 ms) gates the slow log, which
    keeps the 32 newest commands that reached it. *)

val registry : t -> Arnet_obs.Metrics.t

val observer : t -> Arnet_obs.Event.t -> unit
(** The engine-event hook maintaining the [arnet_*] network series;
    pass as [?observer] to {!State.create}. *)

val verb : Wire.command -> string
(** Lower-case wire verb (["setup"], ["teardown"], ...). *)

val verdict : Wire.response -> string
(** Latency-label verdict: ["admitted"], ["blocked"], ["error"], or
    ["ok"]. *)

val record : t -> Wire.command -> Wire.response -> unit
(** Account one handled command: its verb counter, and the admitted,
    blocked, error or teardown counter its response bumps.  O(1); it
    reads no {!State}. *)

val record_malformed : t -> unit
(** Account an input line that failed to parse (answered [ERR]). *)

val record_batch : t -> int -> unit
(** Observe one binary frame's command count into [arnet_batch_size]. *)

val set_epoch : t -> int -> unit
(** Publish the control-plane epoch ([arnet_service_epoch]): the
    server bumps its epoch on every FAIL/REPAIR/RELOAD/LINK
    PATCH/DRAIN and pushes it here at scrape time. *)

val record_latency :
  t -> verb:string -> verdict:string -> float -> bool
(** Observe one command's handling latency (seconds).  Returns [true]
    when it crossed the slow threshold (and so entered the slow log) —
    the caller's cue to emit a warning. *)

val slow_threshold : t -> float
val slow_log : t -> slow_entry list
(** Newest first, at most 32 entries. *)

val to_prometheus : t -> State.t -> string
(** Bring the scrape-time series current and render the registry as
    exposition text.  It sets uptime, the GC counters
    ([Gc.quick_stat]) and live-heap words, and mirrors the daemon state
    from one {!State.stats}: reloads, failovers, active calls, total
    occupancy, failed links, and the per-link capacity, reserve,
    failed and occupancy gauges (all 0 for a removed link, which
    keeps its id at capacity 0).  It also refreshes the wall-clock
    rate gauges.  Since
    State changes only inside commands, every render reads what the
    last command left. *)

val scrape : t -> State.t -> string
(** Count the scrape, then {!to_prometheus} — the [/metrics] body. *)

val statz : t -> State.t -> Arnet_obs.Jsonu.t
(** The [/statz] JSON document: daemon counters, clock, failure set,
    occupancy, and the slow-command log. *)
