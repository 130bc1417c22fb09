(** The socket front end of the daemon: a single-threaded
    [Unix.select] loop multiplexing any number of client connections
    over a Unix-domain or TCP listening socket.  Commands are applied
    to the shared {!State.t} in the order the loop reads them — that
    serialization is the daemon's concurrency model (admission
    decisions are a total order, as in the paper's call-by-call
    semantics), so no locking exists anywhere on the decision path.
    Control-plane commands (FAIL/REPAIR/RELOAD/LINK PATCH/DRAIN) bump
    an epoch counter, published to telemetry as [arnet_service_epoch].

    Any connection may upgrade from the line protocol to the {!Bwire}
    binary batch framing by sending [HELLO binary]: the [OK] comes
    back as the last line-framed response, and everything after is
    frames — one commands frame in, one replies frame out, one
    read/write syscall pair per batch.

    The loop runs until the state reports {!State.drained}: a [DRAIN]
    followed by the teardown of every active call ends the serve,
    after the final state is (optionally) snapshotted through
    {!Arnet_serial.Snapshot}. *)

type addr =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, string) result
(** [unix:PATH], [tcp:HOST:PORT], [HOST:PORT], or a bare port number
    (loopback). *)

val addr_to_string : addr -> string
(** Round-trips through {!addr_of_string}. *)

val max_line_bytes : int
(** The longest command line {!serve} accepts (8192 bytes).  A client
    whose line — terminated or not — exceeds it is sent
    [ERR toolong] and disconnected, so one connection can never make
    the daemon buffer unbounded input. *)

val max_connections : int
(** The most connections {!serve} holds open at once (512, command and
    telemetry together), well below [select]'s FD_SETSIZE.  A
    connection past it is sent one [ERR busy] line and closed. *)

val serve :
  ?metrics:Service_metrics.t ->
  ?telemetry:addr ->
  ?logger:Arnet_obs.Logger.t ->
  ?snapshot:string ->
  ?on_listen:(addr -> unit) ->
  ?tap:(Wire.command -> Wire.response -> unit) ->
  state:State.t ->
  addr ->
  unit
(** Bind, listen, serve until drained.  [snapshot] is the path the
    drain-time {!State.snapshot} is written to.  [on_listen] fires
    once the socket is accepting (the bench and tests use it to
    release the client).  A pre-existing Unix-socket path is replaced.
    [tap] observes every decided (command, response) pair in decision
    order — the merged-order equivalence test records through it.

    When [accept] runs out of descriptors (EMFILE, ENFILE) the failure
    is logged and both listeners rest for 0.1 s while open connections
    are still served; a connection aborted before it was accepted is
    logged and skipped.  An I/O error on one connection closes that
    connection only.

    [telemetry] opens a second listening socket in the same select
    loop speaking one-shot HTTP/1.0: [GET /metrics] renders the
    {!Service_metrics} registry live ({!Service_metrics.scrape}),
    [GET /healthz] answers [ok], [GET /statz] the
    {!Service_metrics.statz} JSON.  A malformed request line is
    answered [400] and the connection closed; the command loop never
    notices.

    Every command is accounted in [metrics] ({!Service_metrics.record})
    and timed on a monotonized clock into
    [arn_command_latency_seconds{verb,verdict}]; commands crossing the
    slow threshold enter the slow log and are warned through [logger]
    (default: silent).  Without [metrics] the daemon keeps a private
    {!Service_metrics.t}, so there is one command path whoever calls.
    @raise Unix.Unix_error when an address cannot be bound (before
    [on_listen] fires). *)

val connect : ?retry_for:float -> addr -> in_channel * out_channel
(** Client side: connect to a serving daemon, retrying refused
    connections for [retry_for] seconds (default 0: one attempt) to
    absorb server start-up.  The channels are buffered; callers flush
    after each command line.
    @raise Unix.Unix_error when the connection cannot be made. *)

val request : in_channel -> out_channel -> Wire.command -> Wire.response
(** Send one command and read its response line.
    @raise End_of_file when the server closes early, [Failure] on an
    unparseable response. *)
