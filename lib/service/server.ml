type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let invalid = Printf.sprintf "invalid address %S (unix:PATH, tcp:HOST:PORT, HOST:PORT or PORT)" s in
  match String.index_opt s ':' with
  | None -> (
    match int_of_string_opt s with
    | Some port when port > 0 && port < 65536 -> Ok (Tcp ("127.0.0.1", port))
    | _ -> Error invalid)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" -> if rest = "" then Error invalid else Ok (Unix_sock rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error invalid
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Error invalid))
    | host -> (
      match int_of_string_opt rest with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
      | _ -> Error invalid))

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found ->
      raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))

let sockaddr_of = function
  | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port))

(* ------------------------------------------------------------------ *)
(* client side *)

let connect ?(retry_for = 0.) addr =
  let domain, sockaddr = sockaddr_of addr in
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec attempt () =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      ignore (Unix.select [] [] [] 0.05);
      attempt ()
    | exception e ->
      Unix.close fd;
      raise e
  in
  let fd = attempt () in
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let request ic oc cmd =
  output_string oc (Wire.print_command cmd);
  output_char oc '\n';
  flush oc;
  let line = input_line ic in
  match Wire.parse_response line with
  | Ok r -> r
  | Error msg -> failwith (Printf.sprintf "bad response %S: %s" line msg)

(* ------------------------------------------------------------------ *)
(* server side *)

type proto =
  | Command  (** the SETUP/TEARDOWN line protocol *)
  | Binary  (** the Bwire batch framing, after a HELLO binary upgrade *)
  | Http  (** a telemetry connection: one GET, one response, close *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes read but not yet framed into a line *)
  mutable proto : proto;
}

(* the longest legal command line; generous next to real commands
   (SETUP is ~40 bytes) but a hard ceiling on what one connection can
   make the daemon buffer *)
let max_line_bytes = 8192

(* select(2) cannot watch a descriptor at or above FD_SETSIZE (1024 on
   Linux; Unix.select raises EINVAL).  Half of it leaves ample room for
   the listeners, the standard streams and a trace file, so every live
   connection stays selectable *)
let max_connections = 512

(* how long the listeners rest after accept runs out of descriptors:
   the refused connection stays queued, so retrying at once would spin
   on a listener that is always readable *)
let accept_backoff = 0.1

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let chomp_cr line =
  if line <> "" && line.[String.length line - 1] = '\r' then
    String.sub line 0 (String.length line - 1)
  else line

(* the first newline in [b.[off, n)] *)
let rec newline b off n =
  if off >= n then None
  else if Bytes.get b off = '\n' then Some off
  else newline b (off + 1) n

(* bind-and-listen with the unix-path replace semantics; [cleanup]
   closes and unlinks, safe to call twice *)
let bind_listener addr =
  let domain, sockaddr = sockaddr_of addr in
  (match addr with
  | Unix_sock path when Sys.file_exists path -> Unix.unlink path
  | _ -> ());
  let listener = Unix.socket domain Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close listener with Unix.Unix_error _ -> ());
    match addr with
    | Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ()
  in
  (try
     (match addr with
     | Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind listener sockaddr;
     Unix.listen listener 64
   with e ->
     cleanup ();
     raise e);
  (listener, cleanup)

(* a complete HTTP request head: headers (if any) ended by a blank line *)
let head_complete data =
  let n = String.length data in
  let rec scan i =
    if i + 1 >= n then false
    else if data.[i] = '\n' && data.[i + 1] = '\n' then true
    else if
      i + 3 < n
      && data.[i] = '\r' && data.[i + 1] = '\n'
      && data.[i + 2] = '\r' && data.[i + 3] = '\n'
    then true
    else scan (i + 1)
  in
  scan 0

(* best-effort reply on a connection about to be dropped *)
let send_last fd s = try write_all fd s with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* protocol machinery.  Each maker closes over the loop's connection
   table through [close_conn]. *)

(* commands that reconfigure shared decision inputs; each bumps the
   control-plane epoch so a reload/patch is an observable event rather
   than a silent mid-stream mutation *)
let is_control = function
  | Wire.Fail _ | Wire.Repair _ | Wire.Reload | Wire.Link_add _
  | Wire.Link_del _ | Wire.Drain ->
    true
  | Wire.Setup _ | Wire.Teardown _ | Wire.Stats | Wire.Quit | Wire.Hello _ ->
    false

type source = Line of string | Parsed of Wire.command

(* a fresh non-decreasing clock for command latencies: the wall clock
   clamped to its own high-water mark, so a backwards step (NTP slew,
   VM migration) reads as a zero-length interval rather than a negative
   latency *)
let monotonic () =
  let last = ref (Unix.gettimeofday ()) in
  fun () ->
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last

(* The decision core: [handle_line]/[handle_batch] parse (lines),
   decide through {!Session}, account metrics and the tap, and write
   the reply.  A peer that vanished mid-reply costs its connection,
   never the daemon. *)
let command_handler ~metrics ~logger ~clock ~state ~tap ~epoch ~close_conn =
  let module Log = Arnet_obs.Logger in
  let decide_core cmd =
    let response = Session.handle state cmd in
    if is_control cmd then incr epoch;
    response
  in
  let apply ~decide source =
    let t0 = clock () in
    let cmd_result =
      match source with
      | Line line -> Wire.parse_command line
      | Parsed cmd -> Ok cmd
    in
    let cmd, response =
      match cmd_result with
      | Error (code, detail) -> (None, Wire.Err { code; detail })
      | Ok cmd -> (Some cmd, decide cmd)
    in
    let verb =
      match cmd with
      | Some cmd ->
        Service_metrics.record metrics cmd response;
        Service_metrics.verb cmd
      | None ->
        Service_metrics.record_malformed metrics;
        "malformed"
    in
    let verdict = Service_metrics.verdict response in
    let seconds = clock () -. t0 in
    if Service_metrics.record_latency metrics ~verb ~verdict seconds then
      Log.warn logger "slow command"
        ~fields:
          [ ("verb", Arnet_obs.Jsonu.String verb);
            ("verdict", Arnet_obs.Jsonu.String verdict);
            ("seconds", Arnet_obs.Jsonu.Float seconds) ];
    (match (tap, cmd) with Some f, Some cmd -> f cmd response | _ -> ());
    (cmd, response)
  in
  (* HELLO is transport negotiation, never a State command: the mode
     switch happens here, after the OK is committed to the line
     framing, so the client reads one last text response and everything
     after it is frames *)
  let decide_line c cmd =
    match cmd with
    | Wire.Hello { mode } -> (
      match String.lowercase_ascii mode with
      | "binary" ->
        c.proto <- Binary;
        Wire.Done
      | "line" -> Wire.Done
      | _ ->
        Wire.Err
          { code = "bad-argument";
            detail =
              Printf.sprintf "unknown framing mode %S (line | binary)" mode })
    | cmd -> decide_core cmd
  in
  let reply c s = try write_all c.fd s with Unix.Unix_error _ -> close_conn c in
  let handle_line c line =
    let cmd, response = apply ~decide:(decide_line c) (Line line) in
    reply c (Wire.print_response response ^ "\n");
    match cmd with Some Wire.Quit -> close_conn c | _ -> ()
  in
  (* one reply write for the whole frame — the syscall amortization the
     binary framing exists for *)
  let handle_batch c cmds =
    Service_metrics.record_batch metrics (List.length cmds);
    let responses =
      List.map (fun cmd -> snd (apply ~decide:decide_core (Parsed cmd))) cmds
    in
    reply c (Bwire.encode_replies responses);
    if List.exists (function Wire.Quit -> true | _ -> false) cmds then
      close_conn c
  in
  let reject_too_long c =
    Service_metrics.record_malformed metrics;
    send_last c.fd
      (Wire.print_response
         (Wire.Err
            { code = "toolong";
              detail = Printf.sprintf "line exceeds %d bytes" max_line_bytes })
      ^ "\n");
    close_conn c
  in
  (* a structurally bad frame is connection-fatal: answer one ERR
     reply frame (the client may be mid-read on a batch) and drop *)
  let binary_fatal c err =
    Service_metrics.record_malformed metrics;
    send_last c.fd
      (Bwire.encode_replies
         [ Wire.Err
             { code = "bad-frame"; detail = Bwire.error_to_string err } ]);
    close_conn c
  in
  (handle_line, handle_batch, reject_too_long, binary_fatal)

let http_handler ~logger ~routes ~close_conn =
  let module Log = Arnet_obs.Logger in
  let module Http = Arnet_obs.Http_exporter in
  let http_respond c (resp : Http.response) =
    if resp.Http.status <> 200 then
      Log.warn logger "telemetry request refused"
        ~fields:
          [ ("status", Arnet_obs.Jsonu.Int resp.Http.status);
            ("reason", Arnet_obs.Jsonu.String resp.Http.reason) ];
    send_last c.fd (Http.render resp);
    close_conn c
  in
  (* answer as soon as the request head is complete ([eof] stands in
     for the blank line when the client half-closes instead); a first
     line that is already malformed is refused without waiting.  Every
     outcome — 200, 400, 404, 405 — is one response then close, and
     none of them touches the command loop *)
  fun ?(eof = false) c ->
    let data = Buffer.contents c.buf in
    match String.index_opt data '\n' with
    | None ->
      if Buffer.length c.buf > max_line_bytes then
        http_respond c (Http.bad_request "request line too long")
      else if eof then close_conn c
    | Some i -> (
      let first = chomp_cr (String.sub data 0 i) in
      match Http.parse_request_line first with
      | Error detail -> http_respond c (Http.bad_request detail)
      | Ok _ ->
        if head_complete data || eof then
          http_respond c (Http.handle ~routes first)
        else if Buffer.length c.buf > max_line_bytes then
          http_respond c (Http.bad_request "request head too long"))

(* read-side pump: bytes into lines, frames or an HTTP head depending
   on the connection's (switchable) proto *)
let conn_pump ~conns ~(handle_http : ?eof:bool -> conn -> unit) ~handle_line
    ~handle_batch ~reject_too_long ~binary_fatal ~close_conn ~chunk =
  let alive c = Hashtbl.mem conns c.fd in
  let pump_binary c =
    let data = Buffer.contents c.buf in
    Buffer.clear c.buf;
    let n = String.length data in
    let rec go off =
      if not (alive c) then ()
      else if off >= n then ()
      else
        match Bwire.decode ~off data with
        | Ok (Bwire.Commands cmds, used) ->
          handle_batch c cmds;
          go (off + used)
        | Ok (Bwire.Replies _, _) ->
          binary_fatal c (Bwire.Corrupt "reply frame from a client")
        | Error (Bwire.Truncated _) ->
          (* an incomplete frame waits for more bytes; Bwire's
             oversize check bounds how much one connection can make us
             hold *)
          Buffer.add_substring c.buf data off (n - off)
        | Error err -> binary_fatal c err
    in
    go 0
  in
  (* the bytes [chunk.[off, n)] under the connection's proto.  A
     command line's newline is found in place, and only that line's
     bytes pass through [c.buf] (CRLF-tolerant: telnet, nc -C), so a
     read's copying is linear in its length, however many lines it
     holds.  One line at a time, so a HELLO binary upgrade leaves the
     bytes behind it, already frames, untouched for the frame decoder *)
  let rec pump c off n =
    if alive c then
      match c.proto with
      | Http ->
        Buffer.add_subbytes c.buf chunk off (n - off);
        handle_http c
      | Binary ->
        Buffer.add_subbytes c.buf chunk off (n - off);
        pump_binary c
      | Command -> (
        match newline chunk off n with
        | Some i ->
          Buffer.add_subbytes c.buf chunk off (i - off);
          let line = chomp_cr (Buffer.contents c.buf) in
          Buffer.clear c.buf;
          if String.length line > max_line_bytes then reject_too_long c
          else begin
            handle_line c line;
            pump c (i + 1) n
          end
        | None ->
          Buffer.add_subbytes c.buf chunk off (n - off);
          (* an unterminated line can also outgrow the ceiling: without
             this, a client sending no newline at all grows [buf]
             without bound *)
          if Buffer.length c.buf > max_line_bytes then reject_too_long c)
  in
  fun c ->
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> (
      match c.proto with
      | Http -> handle_http ~eof:true c
      | Command | Binary -> close_conn c)
    | n -> pump c 0 n
    | exception Unix.Unix_error _ -> close_conn c

let telemetry_routes ~metrics ~state ~epoch =
  let module Http = Arnet_obs.Http_exporter in
  [ ("/metrics",
     fun () ->
       Service_metrics.set_epoch metrics !epoch;
       (Http.prometheus_content_type, Service_metrics.scrape metrics state));
    ("/healthz", fun () -> (Http.text_content_type, "ok\n"));
    ("/statz",
     fun () ->
       ( Http.json_content_type,
         Arnet_obs.Jsonu.to_string (Service_metrics.statz metrics state)
         ^ "\n" )) ]

(* ------------------------------------------------------------------ *)
(* the loop: one select over the listeners and every connection,
   commands decided inline in the order it reads them *)

let serve ?(metrics = Service_metrics.create ()) ?telemetry
    ?(logger = Arnet_obs.Logger.null) ?snapshot ?on_listen ?tap ~state addr =
  let module Log = Arnet_obs.Logger in
  let module J = Arnet_obs.Jsonu in
  (* a client that disconnects mid-response must cost a dropped
     connection, not the whole daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listener, cleanup_listener = bind_listener addr in
  let telemetry_listener =
    match telemetry with
    | None -> None
    | Some taddr -> (
      match bind_listener taddr with
      | l -> Some l
      | exception e ->
        cleanup_listener ();
        raise e)
  in
  let cleanup_listeners () =
    cleanup_listener ();
    match telemetry_listener with Some (_, c) -> c () | None -> ()
  in
  (match on_listen with Some f -> f addr | None -> ());
  Log.info logger "listening"
    ~fields:[ ("addr", J.String (addr_to_string addr)) ];
  Option.iter
    (fun taddr ->
      Log.info logger "telemetry listening"
        ~fields:[ ("addr", J.String (addr_to_string taddr)) ])
    telemetry;
  let clock = monotonic () in
  let epoch = ref 0 in
  let routes = telemetry_routes ~metrics ~state ~epoch in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  (* idempotent: a handler may close a connection its reply write
     already dropped *)
  let close_conn c =
    if Hashtbl.mem conns c.fd then begin
      Hashtbl.remove conns c.fd;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  let handle_line, handle_batch, reject_too_long, binary_fatal =
    command_handler ~metrics ~logger ~clock ~state ~tap ~epoch ~close_conn
  in
  let handle_http = http_handler ~logger ~routes ~close_conn in
  let chunk = Bytes.create 4096 in
  let handle_readable =
    conn_pump ~conns ~handle_http ~handle_line ~handle_batch ~reject_too_long
      ~binary_fatal ~close_conn ~chunk
  in
  let busy =
    Wire.print_response
      (Wire.Err
         { code = "busy";
           detail =
             Printf.sprintf "connection limit %d reached" max_connections })
    ^ "\n"
  in
  (* 0 while accepting; otherwise when the listeners may be polled again *)
  let paused_until = ref 0. in
  let accept_from listener proto =
    match Unix.accept listener with
    | conn_fd, _ when Hashtbl.length conns >= max_connections ->
      Log.warn logger "connection refused: at the connection limit"
        ~fields:[ ("limit", J.Int max_connections) ];
      send_last conn_fd busy;
      (try Unix.close conn_fd with Unix.Unix_error _ -> ())
    | conn_fd, _ ->
      Hashtbl.replace conns conn_fd
        { fd = conn_fd; buf = Buffer.create 256; proto }
    | exception Unix.Unix_error (((Unix.EMFILE | Unix.ENFILE) as err), _, _) ->
      Log.warn logger "accept: out of file descriptors, pausing"
        ~fields:[ ("error", J.String (Unix.error_message err)) ];
      paused_until := Unix.gettimeofday () +. accept_backoff
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
      Log.warn logger "accept: connection aborted by the peer"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let telemetry_fd = Option.map fst telemetry_listener in
  let rec loop () =
    if State.drained state then ()
    else begin
      (* while paused, leave the listeners out and wake when the pause
         ends; the clock is read only then *)
      let wait =
        if !paused_until = 0. then -1.
        else
          let left = !paused_until -. Unix.gettimeofday () in
          if left > 0. then left
          else begin
            paused_until := 0.;
            -1.
          end
      in
      let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      let fds =
        if wait > 0. then fds
        else
          match telemetry_fd with
          | Some tl -> tl :: listener :: fds
          | None -> listener :: fds
      in
      match Unix.select fds [] [] wait with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listener then accept_from listener Command
            else if telemetry_fd = Some fd then accept_from fd Http
            else
              match Hashtbl.find_opt conns fd with
              | Some c -> handle_readable c
              | None -> ())
          readable;
        loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
      cleanup_listeners ())
    (fun () ->
      loop ();
      State.finish state;
      match snapshot with
      | Some path -> Arnet_serial.Snapshot.to_file path (State.snapshot state)
      | None -> ())
