(** Server-side metrics, on the {!Arnet_obs.Metrics} registry.

    One record per daemon, holding every family the telemetry endpoint
    exposes:

    - [arn_service_*] — command/verdict counters, active-call,
      total-occupancy and failed-link gauges, admitted-hops histogram;
    - [arn_command_latency_seconds{verb,verdict}] — log-bucket
      per-command handling latency, fed by the server's monotonic
      timer, with a keep-newest ring of threshold-crossing commands
      behind it (the slow log);
    - [arn_process_*] — uptime, GC counters and live-heap words,
      refreshed on {!scrape};
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

val create : ?slow_threshold:float -> ?slow_keep:int -> unit -> t
(** [slow_threshold] (seconds, default 10 ms) gates the slow-command
    ring; [slow_keep] (default 32) is its capacity — older entries are
    overwritten, newest kept.
    @raise Invalid_argument when [slow_keep < 1]. *)

val registry : t -> Arnet_obs.Metrics.t

val observer : t -> Arnet_obs.Event.t -> unit
(** The engine-event hook maintaining the [arnet_*] network series;
    pass as [?observer] to {!State.create}. *)

val verb : Wire.command -> string
(** Lower-case wire verb (["setup"], ["teardown"], ...). *)

val verdict : Wire.response -> string
(** Latency-label verdict: ["admitted"], ["blocked"], ["error"], or
    ["ok"]. *)

val record : t -> State.t -> Wire.command -> Wire.response -> unit
(** Account one handled command and refresh the state gauges. *)

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
(** Newest first, at most [slow_keep] entries. *)

val refresh : t -> State.t -> unit
(** Bring the scrape-time series current: uptime, GC counters
    ([Gc.quick_stat]), live-heap words, and the per-link
    capacity/reserve gauges from the daemon state. *)

val scrape : t -> State.t -> string
(** [refresh], count the scrape, and render the registry — the
    [/metrics] body. *)

val statz : t -> State.t -> Arnet_obs.Jsonu.t
(** The [/statz] JSON document: daemon counters, clock, failure set,
    occupancy, and the slow-command log. *)

val to_prometheus : t -> string
