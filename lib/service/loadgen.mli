(** Seeded open-loop load generator — the client half of [arn serve].

    Draws the same Poisson workload the simulator replays
    ({!Arnet_sim.Trace.generate} from a master seed over a traffic
    matrix) and drives a daemon with it over the wire: one [SETUP] per
    arrival (carrying the virtual arrival instant), one [TEARDOWN] per
    accepted call at its virtual departure instant, in the engine's
    event order ({!walk}), so a FAIL-free daemon under this load makes
    the same decision sequence as {!Arnet_sim.Engine.run} on the same
    trace.  The generator is open-loop in virtual time but closed-loop
    on the wire (it waits for each batch's responses), so for a single
    connection the commands, and hence the accept/block counts, are
    the same every run and for every batch size.

    [connections > 1] shards calls round-robin across that many
    sockets driven from one thread each — a throughput measurement
    mode; wire-order determinism is then up to the scheduler. *)

open Arnet_traffic

type counts = { accepted : int; blocked : int; errors : int; teardowns : int }
(** What one {!walk} saw: SETUPs admitted and blocked, ERR responses
    to either verb, and TEARDOWNs sent. *)

val walk :
  ?timestamps:bool ->
  batch:int ->
  (Wire.command list -> Wire.response list) ->
  Arnet_sim.Trace.t ->
  int array ->
  counts
(** [walk ~batch transport trace calls] sends a SETUP for each of
    [calls] (ascending indices into [trace]) and a TEARDOWN for each
    admitted one, in {!Arnet_sim.Engine.run}'s order: before each
    arrival, the calls that arrived earlier and end by its instant
    depart in [trace.order].  Commands reach [transport] in batches of
    up to [batch], answered one response each, in order.  A batch ships
    early when a call it sets up departs, so every batch size sends the
    same commands in the same order.  [timestamps] (default true) puts
    the arrival instant on each SETUP.
    @raise Failure when [transport] answers a batch with another number
    of responses. *)

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

    Each connection runs one {!walk}, whatever the transport.  In line
    mode a batch is one command line and its response, and the
    connection ends with [QUIT].  [binary] (default false) upgrades the
    connection with [HELLO binary] and ships each batch of up to
    [batch] (default 1) commands as one {!Bwire} frame each way;
    closing the socket ends it.  Every batch size sends the commands
    of line mode, in line mode's order.  Each request's recorded
    latency is its batch's round-trip time, observed once per request.
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
