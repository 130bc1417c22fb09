(** Seeded open-loop load generator — the client half of [arn serve].

    Draws the same Poisson workload the simulator replays
    ({!Arnet_sim.Trace.generate} from a master seed over a traffic
    matrix) and drives a daemon with it over the wire: one [SETUP] per
    arrival (carrying the virtual arrival instant), one [TEARDOWN] per
    accepted call at its virtual departure instant, interleaved in
    virtual-time order with departures first on ties — exactly the
    engine's event order, so a FAIL-free daemon under this load makes
    the same decision sequence as {!Arnet_sim.Engine.run} on the same
    trace.  The generator is open-loop in virtual time but closed-loop
    on the wire (it waits for each response), so admission order is
    deterministic for a single connection: same seed, same daemon
    seed, same accept/block counts, every run.

    [connections > 1] shards calls round-robin across that many
    sockets driven from one thread each — a throughput measurement
    mode; wire-order determinism is then up to the scheduler. *)

open Arnet_traffic

type result = {
  calls : int;  (** SETUPs sent *)
  accepted : int;
  blocked : int;
  errors : int;  (** ERR responses (should be 0 against a live daemon) *)
  teardowns : int;
  requests : int;  (** total wire round-trips, setups + teardowns *)
  wall_s : float;
  in_flight_max : int;
      (** high-water mark of requests written but not yet answered,
          summed over every connection: [connections] in line mode
          (one outstanding each), up to [connections * batch] when
          batching *)
  latency_buckets : (float * int) list;
      (** request-latency histogram in seconds: [(upper bound,
          cumulative count)], log-scale bounds ending at [infinity] —
          the {!Arnet_obs.Metrics} bucket convention. *)
  latency_sum : float;
  latency_count : int;
}

val run :
  ?connections:int ->
  ?timestamps:bool ->
  ?retry_for:float ->
  ?binary:bool ->
  ?batch:int ->
  seed:int ->
  calls:int ->
  matrix:Matrix.t ->
  addr:Server.addr ->
  unit ->
  result
(** Generate [calls] arrivals from [seed] over [matrix] and replay
    them against the daemon at [addr].  [timestamps] (default true)
    sends virtual arrival instants on [SETUP], driving the daemon's
    clock and hence its estimators; disable to exercise the untimed
    protocol path.  [connections] defaults to 1; [retry_for] (default
    5 s) tolerates a daemon still binding its socket.

    Each connection runs one event walk, whatever the transport:
    commands accumulate into batches of [batch] (default 1), and each
    batch is one write/read round.  In line mode a batch is one command
    line and its response, and the connection ends with [QUIT].
    [binary] (default false) upgrades the connection with
    [HELLO binary] and ships each batch as one {!Bwire} frame each way;
    closing the socket ends it.  A teardown is only scheduled once its
    setup's verdict has been read, so it never precedes its own setup
    on the wire, and each request's recorded latency is its batch's
    round-trip time, observed once per request.  So line mode and
    [~binary:true ~batch:1] send the same commands in the same order.
    @raise Invalid_argument for [calls < 1], [connections < 1],
    [batch] outside [1 .. Bwire.max_batch], or [batch > 1] without
    [binary]; socket errors propagate as [Unix.Unix_error]. *)

val requests_per_second : result -> float

val quantile : result -> float -> float
(** Latency quantile in seconds estimated from the histogram (upper
    bound of the bucket containing the quantile; the top bucket
    reports the largest finite bound).
    @raise Invalid_argument outside (0, 1]. *)

val to_json : result -> Arnet_obs.Jsonu.t
(** Counts, [requests_per_s], [requests_in_flight], blocking, and the
    latency summary ([latency_mean_s], [_p50_s], [_p95_s], [_p99_s],
    [_max_s]) — what [arn load --json] prints. *)

val print : Format.formatter -> result -> unit
(** The human summary [arn load] prints: counts, blocking, req/s, and
    mean/p50/p95/p99/max latency. *)
