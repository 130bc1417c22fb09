(* arnbench — the repository benchmark.

   One invocation measures one workload for a fixed wall-clock window
   and prints, as the last line of stdout, one JSON object
   {"correct", "attempted", "failed", "metrics"}.

   --trace 0 reports the end-to-end metrics (time_p50_ref, setup_s).
   --trace 1 runs the same workload with spans around the calls it
   makes into each layer, then times every layer of the ROADMAP's list
   as a kernel driven by the workload's own network and traffic, and
   reports the per-layer metrics instead.  perfbench/README.md lists
   the workloads, the metrics and which layer should move which
   end-to-end number.

   Usage:
     arnbench.exe --workload W --seed N --seconds S --trace 0|1 --arn PATH
       [--daemon-cpu N]
     arnbench.exe --echo

   [--arn] is the arn executable the daemon workloads start as
   [arn serve]; scratch files (sockets) go under [.perfbench/] in the
   working directory.  [--echo] is the daemon's reference (see
   [echo_loop]). *)

open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core
module Wire = Arnet_service.Wire
module Bwire = Arnet_service.Bwire
module State = Arnet_service.State
module Session = Arnet_service.Session
module Mesh = Arnet_ingest.Mesh

(* CLOCK_MONOTONIC in nanoseconds: request latencies are tens of
   microseconds, below what gettimeofday resolves well *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let run_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* results *)

let correct = ref true
let attempted = ref 0
let failed = ref 0

let check ok what =
  if not ok then begin
    correct := false;
    prerr_endline ("arnbench: check failed: " ^ what)
  end

let metrics : (string * float * string) list ref = ref []
let emit name unit value = metrics := (name, value, unit) :: !metrics

let print_result () =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else begin
      check false "non-finite metric value";
      "0"
    end
  in
  let fields =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v)
          unit)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct (max 1 !attempted) !failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* statistics and timing *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create ?(capacity = 1024) () = { a = Array.make (max 1 capacity) 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* linear interpolation between order statistics *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let summary name unit scale xs =
  Printf.eprintf "%s: %d samples, %s p10 %.4g p25 %.4g p50 %.4g p90 %.4g mean %.4g\n"
    name (Array.length xs) unit (scale *. quantile xs 0.1) (scale *. quantile xs 0.25)
    (scale *. median xs) (scale *. quantile xs 0.9)
    (scale *. Array.fold_left ( +. ) 0. xs /. float_of_int (max 1 (Array.length xs)))

(* Set-up runs [setup_reps] times and setup_s is the median: once
   before the measured window (that result is the one used), then at
   even intervals inside it, between operations, with the result
   discarded.  Spread over the window, the median spans the machine's
   swings in speed as the operations' median does; five set-ups in a
   row would all land in the same second. *)
let setup_reps = 5

type setup = {
  again : unit -> unit;  (** one more set-up, timed, result discarded *)
  times : Fbuf.t;
  every : float;
  mutable due : float;
}

let start_setup ~seconds ?(discard = ignore) f =
  let times = Fbuf.create () in
  let timed () =
    let t0 = now () in
    let v = f () in
    Fbuf.add times (now () -. t0);
    v
  in
  let v = timed () in
  let every = seconds /. float_of_int setup_reps in
  (v, { again = (fun () -> discard (timed ())); times; every; due = now () +. every })

(* the next set-up, if one is due *)
let setup_tick s =
  if s.times.Fbuf.n < setup_reps && now () >= s.due then begin
    s.again ();
    s.due <- now () +. s.every
  end

let setup_s s =
  while s.times.Fbuf.n < setup_reps do
    s.again ()
  done;
  median (Fbuf.to_array s.times)

(* The reference kernel: fixed work that allocates and chases pointers
   the way the program does (build, sort and fold a list of pairs), and
   none of the program's code.  A small virtual machine's speed swings
   by up to 1.5x over seconds as its neighbours load the shared cores
   and caches; timing each operation right after the kernel and
   reporting the ratio cancels most of that swing, so the end-to-end
   times are steady from run to run while any change to the program
   still moves them in full. *)
let reference () =
  let l = List.init 15_000 (fun i -> ((i * 7919) land 65535, float_of_int i)) in
  let l = List.sort compare l in
  ignore
    (Sys.opaque_identity
       (List.fold_left (fun a (k, x) -> a + k + int_of_float x) 0 l))

type timed = {
  op_s : float array;  (** seconds per operation *)
  ref_s : float array;  (** the reference kernel just before it *)
  rel : float array;  (** their ratio *)
}

(* run [op] after the reference kernel, again and again, until
   [seconds] have passed; set-ups fall due in between *)
let measure ~seconds ~setup op =
  let o = Fbuf.create () and r = Fbuf.create () and q = Fbuf.create () in
  let t_end = now () +. seconds in
  let continue = ref true in
  while !continue do
    setup_tick setup;
    let t0 = now () in
    reference ();
    let t1 = now () in
    op ();
    let t2 = now () in
    Fbuf.add o (t2 -. t1);
    Fbuf.add r (t1 -. t0);
    Fbuf.add q ((t2 -. t1) /. (t1 -. t0));
    continue := t2 < t_end
  done;
  { op_s = Fbuf.to_array o; ref_s = Fbuf.to_array r; rel = Fbuf.to_array q }

(* repeat [f] until at least [min_s] seconds have passed; seconds per
   call of [f] *)
let per_call ?(min_s = 0.2) f =
  let t0 = now () in
  let reps = ref 0 in
  while now () -. t0 < min_s || !reps = 0 do
    f ();
    incr reps
  done;
  (now () -. t0) /. float_of_int !reps

(* ------------------------------------------------------------------ *)
(* workload inputs *)

(* everything a layer kernel needs: a network, its route table, the
   traffic matrix that plans it, and a call trace drawn from that
   matrix *)
type inputs = {
  graph : Graph.t;
  h : int;
  routes : Route_table.t;
  matrix : Matrix.t;
  trace : Trace.t;
}

let trace_of ~seed ~name ~duration matrix =
  Trace.generate
    ~rng:(Rng.substream (Rng.create ~seed) name)
    ~duration matrix

(* the inputs over [routes], with a trace of about [calls] calls drawn
   from [matrix] *)
let inputs_of ~seed ~name ~calls routes matrix =
  { graph = Route_table.graph routes; h = Route_table.h routes; routes; matrix;
    trace =
      trace_of ~seed ~name ~duration:(float_of_int calls /. Matrix.total matrix)
        matrix }

(* degree-4 geographic mesh with degree-weighted gravity traffic, scaled
   so its hottest link is offered [hot] Erlangs by primary routing: the
   busy links then block and overflow onto alternates.  The topology is
   fixed (generator seed 0): how many alternates a mesh has sets the
   compile cost, and the benchmark compares code, not topologies. *)
let mesh_network ~nodes ~h ~hot =
  let topo = Mesh.random_mesh ~seed:0 ~nodes () in
  let routes = Route_table.build ~h topo.Arnet_ingest.Topo.graph in
  let m0 = Mesh.gravity topo in
  let peak = Array.fold_left Float.max 0. (Loads.primary_link_loads routes m0) in
  (routes, Matrix.scale m0 (hot /. peak))

(* ------------------------------------------------------------------ *)
(* the daemon over its socket *)

let children : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !children)

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ fd ] [] 1.0);
      write_all fd s off

let write_all fd s = write_all fd s 0

(* one line from a blocking fd, read byte-wise: only used before the
   load starts and after it ends, never mid-stream *)
let read_line_blocking fd =
  let b = Buffer.create 64 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> failwith "arnbench: daemon closed the connection"
    | _ ->
      let c = Bytes.get one 0 in
      if c = '\n' then Buffer.contents b
      else begin
        Buffer.add_char b c;
        go ()
      end
  in
  go ()

type daemon = { pid : int; sock : string; fd : Unix.file_descr }

let daemon_cpu : int option ref = ref None

(* off the benchmark's own CPU when one is given: sharing it, the
   spinning load generator would starve the daemon *)
let on_daemon_cpu args =
  match !daemon_cpu with
  | Some cpu -> Array.append [| "taskset"; "-c"; string_of_int cpu |] args
  | None -> args

(* The daemon's reference: this executable run as [--echo] on the
   daemon's CPU, returning every byte it reads.  A paced one-byte ping
   through it costs what a request costs the machine (a wake-up on the
   other CPU and a socket round trip each way) and none of the
   program's work; the daemon's latencies are reported in units of it,
   for the same reason the other workloads use [reference]. *)
let echo_loop () =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Unix.read Unix.stdin buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      let rec put off =
        if off < n then put (off + Unix.write Unix.stdout buf off (n - off))
      in
      put 0;
      go ()
  in
  go ()

type echo = { echo_pid : int; echo_fd : Unix.file_descr }

let start_echo () =
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec mine;
  let args = on_daemon_cpu [| Sys.executable_name; "--echo" |] in
  let pid = Unix.create_process args.(0) args theirs theirs Unix.stderr in
  children := pid :: !children;
  Unix.close theirs;
  Unix.set_nonblock mine;
  { echo_pid = pid; echo_fd = mine }

(* median round trip of [n] one-byte pings, one every [gap] seconds;
   the reply is awaited spinning, as the load generator awaits its *)
let ping e ~n ~gap =
  let one = Bytes.make 1 'p' in
  let rtts = Array.make n 0. in
  let next = ref (now ()) in
  for i = 0 to n - 1 do
    next := !next +. gap;
    while now () < !next do () done;
    let t0 = now () in
    if Unix.write e.echo_fd one 0 1 <> 1 then failwith "arnbench: echo write";
    let rec wait () =
      match Unix.read e.echo_fd one 0 1 with
      | 1 -> ()
      | _ -> failwith "arnbench: echo closed"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> wait ()
    in
    wait ();
    rtts.(i) <- now () -. t0
  done;
  median rtts

let finish_echo e =
  Unix.close e.echo_fd;
  reap e.echo_pid

let socket_counter = ref 0

(* start [arn serve] on the paper's NSFNet backbone (its fitted nominal
   matrix plans the protection levels, H = 11) and wait until it answers
   STATS *)
let start_daemon ~arn =
  incr socket_counter;
  let sock =
    Filename.concat run_dir
      (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let args =
    [| arn; "serve"; "--listen"; "unix:" ^ sock; "--network"; "nsfnet";
       "--log-level"; "error" |]
  in
  let args = on_daemon_cpu args in
  let pid = Unix.create_process args.(0) args Unix.stdin Unix.stderr Unix.stderr in
  children := pid :: !children;
  let deadline = now () +. 120. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        children := List.filter (( <> ) pid) !children;
        failwith "arnbench: arn serve exited during start-up");
      if now () > deadline then failwith "arnbench: arn serve did not start";
      Unix.sleepf 0.0005;
      connect ()
  in
  let fd = connect () in
  write_all fd "STATS\n";
  let reply = read_line_blocking fd in
  if not (String.length reply > 6 && String.sub reply 0 6 = "STATS ") then
    failwith ("arnbench: unexpected start-up reply " ^ reply);
  { pid; sock; fd }

(* children's CPU seconds, counted once they are reaped *)
let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let finish_daemon d =
  Unix.close d.fd;
  reap d.pid;
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* a daemon started only to time start-up: drain it (no calls are
   active, so it exits at once) *)
let discard_daemon d =
  write_all d.fd "DRAIN\n";
  ignore (read_line_blocking d.fd);
  finish_daemon d

(* the client connection: line protocol, or Bwire frames after HELLO *)
type conn = {
  cfd : Unix.file_descr;
  binary : bool;
  rbuf : Bytes.t;
  mutable pending : string;  (** received, not yet decoded *)
  mutable frames : int;  (** command frames (or line writes) sent *)
}

let open_conn ~binary fd =
  if binary then begin
    write_all fd "HELLO binary\n";
    let reply = read_line_blocking fd in
    if reply <> "OK" then failwith ("arnbench: HELLO binary refused: " ^ reply)
  end;
  Unix.set_nonblock fd;
  { cfd = fd; binary; rbuf = Bytes.create 65536; pending = ""; frames = 0 }

(* append whatever the daemon has sent; false when nothing was ready *)
let pull c =
  match Unix.read c.cfd c.rbuf 0 (Bytes.length c.rbuf) with
  | 0 -> failwith "arnbench: daemon closed the connection"
  | n ->
    c.pending <- c.pending ^ Bytes.sub_string c.rbuf 0 n;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false

(* write without ever blocking on a full socket while replies wait to
   be read: a daemon that falls behind would otherwise block writing
   its replies and both ends would wait on each other *)
let send c cmds =
  c.frames <- c.frames + 1;
  let s =
    if c.binary then Bwire.encode_commands cmds
    else String.concat "" (List.map (fun x -> Wire.print_command x ^ "\n") cmds)
  in
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.cfd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ignore (Unix.select [ c.cfd ] [ c.cfd ] [] 1.0);
        ignore (pull c);
        go off
  in
  go 0

(* decode every complete response buffered so far *)
let decode c =
  let s = c.pending in
  let len = String.length s in
  let out = ref [] in
  let rec go off =
    if off >= len then off
    else if c.binary then
      match Bwire.decode ~off s with
      | Ok (Bwire.Replies rs, n) ->
        out := List.rev_append rs !out;
        go (off + n)
      | Ok (Bwire.Commands _, _) -> failwith "arnbench: commands frame from daemon"
      | Error (Bwire.Truncated _) -> off
      | Error e -> failwith ("arnbench: bad reply frame: " ^ Bwire.error_to_string e)
    else
      match String.index_from_opt s off '\n' with
      | None -> off
      | Some i -> (
        match Wire.parse_response (String.sub s off (i - off)) with
        | Ok r ->
          out := r :: !out;
          go (i + 1)
        | Error msg -> failwith ("arnbench: bad reply line: " ^ msg))
  in
  let off = go 0 in
  c.pending <- String.sub s off (len - off);
  List.rev !out

(* responses available now; with [block], wait for at least one *)
let receive ?(block = false) c =
  let rec go () =
    let fresh = pull c in
    let rs = if fresh || c.pending <> "" then decode c else [] in
    if rs = [] && block then begin
      if not fresh then ignore (Unix.select [ c.cfd ] [] [] 1.0);
      go ()
    end
    else rs
  in
  go ()

(* send a batch and wait for all its replies (closed loop: clean-up
   only, never timed) *)
let exchange c cmds =
  let rec chunks acc = function
    | [] -> List.rev acc
    | l ->
      let rec take k acc' = function
        | x :: tl when k > 0 -> take (k - 1) (x :: acc') tl
        | rest -> (List.rev acc', rest)
      in
      let chunk, rest = take (if c.binary then Bwire.max_batch else 256) [] l in
      chunks (chunk :: acc) rest
  in
  List.concat_map
    (fun chunk ->
      send c chunk;
      let want = List.length chunk in
      let got = ref [] in
      while List.length !got < want do
        got := !got @ receive ~block:true c
      done;
      !got)
    (chunks [] cmds)

type open_loop = {
  latencies : float array;  (** due -> reply, requests due in the window *)
  rels : float array;  (** the same, over the echo round trip of their segment *)
  refs : float array;  (** the echo round trips *)
  rtts : float array;  (** sent -> reply, same requests *)
  lags : float array;  (** due -> sent, same requests *)
  window_requests : int;
  sent : Wire.command array;  (** every command, in wire order *)
  got : Wire.response array;  (** every response, in the same order *)
  frames : int;
}

(* Open-loop Poisson load: trace call [i] is due to SETUP at virtual
   time [times.(i)] and, once admitted, to TEARDOWN at [ends.(i)]; one
   virtual time unit lasts [tau] wall seconds.  Line requests go out
   when due whatever the daemon's backlog (all requests due at one
   instant share one write); binary requests batch as described at the
   flush below.  Each request is timed from its due instant.  The loop
   spins rather than sleeps to keep the generator's own lateness small
   (it is reported as generator_lag_us).  Requests due in the first
   [warm] seconds fill the daemon's per-pair and per-link series and
   are not sampled; after [warm + seconds] no new calls start, the calls
   still up are torn down and the daemon is drained.

   Every [segment] seconds, once no request is outstanding, the load
   pauses for [probe] (the reference round trip); the schedule's clock
   stands still meanwhile, so no request falls due during a probe. *)
let segment = 0.5

let open_loop c ~trace ~tau ~warm ~seconds ~probe =
  let times = trace.Trace.times and ends = trace.Trace.ends in
  let srcs = trace.Trace.srcs and dsts = trace.Trace.dsts in
  let n = Trace.call_count trace in
  let deps : int Event_queue.t = Event_queue.create () in
  (* outstanding requests, oldest first: (due, sent, call index or -1) *)
  let fifo : (float * float * int) Queue.t = Queue.create () in
  let sent = ref [] and got = ref [] in
  let capacity = 2 * n in
  let lat = Fbuf.create ~capacity () and rtt = Fbuf.create ~capacity ()
  and lag = Fbuf.create ~capacity () and rel = Fbuf.create ~capacity () in
  let refs = Fbuf.create () in
  let probe () =
    let r = probe () in
    Fbuf.add refs r;
    r
  in
  let reference = ref (probe ()) in
  let paused = ref 0. in
  let now () = now () -. !paused in
  let t0 = now () +. 0.002 in
  let next_probe = ref (t0 +. segment) in
  let sample_from = t0 +. warm in
  let stop = sample_from +. seconds in
  let window_requests = ref 0 in
  let next = ref 0 in
  let record cmd =
    sent :=
      (if c.binary then cmd
       else
         (* the daemon decides on what the line says *)
         match Wire.parse_command (Wire.print_command cmd) with
         | Ok x -> x
         | Error _ -> cmd)
      :: !sent
  in
  let on_reply r =
    let due, sent_at, call = Queue.pop fifo in
    let t = now () in
    if due >= sample_from && due < stop then begin
      Fbuf.add lat (t -. due);
      Fbuf.add rel ((t -. due) /. !reference);
      Fbuf.add rtt (t -. sent_at);
      Fbuf.add lag (sent_at -. due)
    end;
    got := r :: !got;
    match r with
    | Wire.Admitted { id; _ } when call >= 0 ->
      Event_queue.push deps ~time:(t0 +. (ends.(call) *. tau)) id
    | _ -> ()
  in
  let batch = ref [] in
  let flush () =
    if !batch <> [] then begin
      let items = List.rev !batch in
      batch := [];
      let t = now () in
      List.iter (fun (due, call, _) -> Queue.push (due, t, call) fifo) items;
      send c (List.map (fun (_, _, cmd) -> cmd) items)
    end
  in
  let queued = ref 0 in
  let add due call cmd =
    record cmd;
    if due >= sample_from then incr window_requests;
    batch := (due, call, cmd) :: !batch;
    incr queued;
    if c.binary && !queued mod Bwire.max_batch = 0 then flush ()
  in
  let running = ref true in
  while !running do
    let t = now () in
    if t >= stop then running := false
    else if t >= !next_probe && Queue.is_empty fifo && !batch = [] then begin
      let p0 = now () in
      reference := probe ();
      paused := !paused +. (now () -. p0);
      next_probe := !next_probe +. segment
    end
    else begin
      (* everything due by now, in due order *)
      let more = ref true in
      while !more do
        let arr_due =
          if !next < n then t0 +. (times.(!next) *. tau) else infinity
        in
        let dep_due =
          match Event_queue.peek_time deps with Some d -> d | None -> infinity
        in
        if dep_due <= t && dep_due <= arr_due then begin
          let id = Event_queue.pop_payload deps in
          add dep_due (-1) (Wire.Teardown { id })
        end
        else if arr_due <= t then begin
          let i = !next in
          incr next;
          add arr_due i
            (Wire.Setup { src = srcs.(i); dst = dsts.(i); time = Some times.(i) })
        end
        else more := false
      done;
      (* binary mode keeps one frame in flight: requests falling due
         meanwhile wait and go out together as the next frame, so the
         batch size is whatever the daemon's round trip accumulates *)
      if not (c.binary && not (Queue.is_empty fifo)) then flush ();
      if not (Queue.is_empty fifo) then List.iter on_reply (receive c)
    end
  done;
  flush ();
  while not (Queue.is_empty fifo) do
    List.iter on_reply (receive ~block:true c)
  done;
  (* wind down: tear down every call still up, then drain *)
  let rest = ref [] in
  while not (Event_queue.is_empty deps) do
    rest := Wire.Teardown { id = Event_queue.pop_payload deps } :: !rest
  done;
  let cleanup = List.rev !rest @ [ Wire.Drain ] in
  List.iter record cleanup;
  let replies = exchange c cleanup in
  got := List.rev_append replies !got;
  { latencies = Fbuf.to_array lat;
    rels = Fbuf.to_array rel;
    refs = Fbuf.to_array refs;
    rtts = Fbuf.to_array rtt;
    lags = Fbuf.to_array lag;
    window_requests = !window_requests;
    sent = Array.of_list (List.rev !sent);
    got = Array.of_list (List.rev !got);
    frames = c.frames }

(* The oracle for the served decisions: the same command stream applied
   in-process to a fresh daemon state over the same network.  Returns
   the mismatch count and the seconds spent in Session.handle. *)
let replay_in_process inp (ol : open_loop) =
  let state = State.create ~h:inp.h ~matrix:inp.matrix inp.graph in
  let mismatches = ref 0 in
  let t0 = now () in
  let n = min (Array.length ol.sent) (Array.length ol.got) in
  for k = 0 to n - 1 do
    let r = Session.handle state ol.sent.(k) in
    if not (Wire.equal_response r ol.got.(k)) then incr mismatches
  done;
  let dt = now () -. t0 in
  (!mismatches + abs (Array.length ol.sent - Array.length ol.got), dt)

let errors_in got =
  Array.fold_left
    (fun acc r -> match r with Wire.Err _ -> acc + 1 | _ -> acc)
    0 got

(* wall seconds per virtual time unit for a target request rate: each
   call costs a SETUP and (when admitted) a TEARDOWN *)
let tau_for inp ~rate = 2. *. Matrix.total inp.matrix /. rate

(* ------------------------------------------------------------------ *)
(* per-layer kernels, each driven by a workload's own inputs *)

let ns x = x *. 1e9
let us x = x *. 1e6
let ms x = x *. 1e3

(* a seeded mid-load occupancy, so admission checks take both branches *)
let occupancy_of inp ~seed =
  let rng = Rng.substream (Rng.create ~seed) "occupancy" in
  Array.map
    (fun (l : Link.t) -> Rng.int rng (l.Link.capacity + 1))
    (Graph.links inp.graph)

(* walk the trace in engine event order against an in-process daemon
   state (arrivals as SETUP, departures of admitted calls as TEARDOWN),
   recording the command/response stream *)
let session_stream inp ~limit =
  let state = State.create ~h:inp.h ~matrix:inp.matrix inp.graph in
  let tr = inp.trace in
  let n = min limit (Trace.call_count tr) in
  let deps : int Event_queue.t = Event_queue.create () in
  let cmds = ref [] and resps = ref [] in
  let busy = ref 0. in
  let apply cmd =
    let t0 = now () in
    let r = Session.handle state cmd in
    busy := !busy +. (now () -. t0);
    cmds := cmd :: !cmds;
    resps := r :: !resps;
    r
  in
  for i = 0 to n - 1 do
    while Event_queue.next_due deps ~deadlines:tr.Trace.times i do
      ignore (apply (Wire.Teardown { id = Event_queue.pop_payload deps }))
    done;
    match
      apply
        (Wire.Setup
           { src = tr.Trace.srcs.(i); dst = tr.Trace.dsts.(i);
             time = Some tr.Trace.times.(i) })
    with
    | Wire.Admitted { id; _ } -> Event_queue.push_at deps ~times:tr.Trace.ends i id
    | _ -> ()
  done;
  let cmds = Array.of_list (List.rev !cmds) in
  (cmds, Array.of_list (List.rev !resps), !busy /. float_of_int (Array.length cmds))

let layer_kernels ~seed inp ~stream =
  let tr = inp.trace in
  let n = Trace.call_count tr in
  let srcs = tr.Trace.srcs and dsts = tr.Trace.dsts in
  let sink = ref 0 in
  (* Erlang-B + Theorem-1 protection levels, per link *)
  let links = Graph.link_count inp.graph in
  let t =
    per_call (fun () ->
        sink := !sink + Array.length (Protection.levels inp.routes inp.matrix ~h:inp.h))
  in
  emit "erlang_levels_ns_per_link" "ns" (ns t /. float_of_int links);
  (* route lookup: the primary and the attempt-ordered alternates *)
  let t =
    per_call (fun () ->
        for i = 0 to n - 1 do
          let p = Route_table.primary inp.routes ~src:srcs.(i) ~dst:dsts.(i) in
          let a = Route_table.alternate_array inp.routes ~src:srcs.(i) ~dst:dsts.(i) in
          sink := !sink + Path.hops p + Array.length a
        done)
  in
  emit "route_lookup_ns" "ns" (ns t /. float_of_int n);
  (* admission: primary rule, then the trunk-reservation rule down the
     alternates until one admits *)
  let adm =
    Admission.make
      ~capacities:(Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links inp.graph))
      ~reserves:(Protection.levels inp.routes inp.matrix ~h:inp.h)
  in
  let occupancy = occupancy_of inp ~seed in
  let t =
    per_call (fun () ->
        for i = 0 to n - 1 do
          let src = srcs.(i) and dst = dsts.(i) in
          if Admission.path_admits_primary adm ~occupancy
               (Route_table.primary inp.routes ~src ~dst)
          then incr sink
          else
            let a = Route_table.alternate_array inp.routes ~src ~dst in
            let k = ref 0 in
            while !k < Array.length a
                  && not (Admission.path_admits_alternate adm ~occupancy a.(!k))
            do
              incr k
            done;
            sink := !sink + !k
        done)
  in
  emit "admission_ns" "ns" (ns t /. float_of_int n);
  (* event queue: the engine's departure discipline *)
  let q : int Event_queue.t = Event_queue.create () in
  let t =
    per_call (fun () ->
        Event_queue.clear q;
        for i = 0 to n - 1 do
          while Event_queue.next_due q ~deadlines:tr.Trace.times i do
            sink := !sink + Event_queue.pop_payload q
          done;
          Event_queue.push_at q ~times:tr.Trace.ends i i
        done)
  in
  emit "event_queue_ns" "ns" (ns t /. float_of_int n);
  (* trace generation *)
  let t =
    per_call (fun () ->
        let g =
          trace_of ~seed ~name:"kernel-trace" ~duration:tr.Trace.duration inp.matrix
        in
        sink := !sink + Trace.call_count g)
  in
  emit "trace_gen_ns_per_call" "ns" (ns t /. float_of_int n);
  (* the replay loop under the paper's controlled scheme *)
  let policy = Scheme.controlled_auto ~h:inp.h ~matrix:inp.matrix inp.routes in
  let warmup = tr.Trace.duration /. 11. in
  let run () =
    ignore (Engine.run ~warmup ~graph:inp.graph ~policy tr : Stats.t)
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  let t = per_call run in
  emit "replay_ns_per_call" "ns" (ns t /. float_of_int n);
  emit "replay_words_per_call" "words" (words /. float_of_int n);
  (* route compilation and a one-link incremental patch *)
  let t = per_call ~min_s:0.05 (fun () -> ignore (Route_table.build ~h:inp.h inp.graph)) in
  emit "route_build_ms" "ms" (ms t);
  let l = Graph.link inp.graph (Graph.link_count inp.graph / 2) in
  let t =
    per_call ~min_s:0.05 (fun () ->
        ignore
          (Route_table.patch inp.routes
             [ Route_table.Remove_link { src = l.Link.src; dst = l.Link.dst } ]))
  in
  emit "route_patch_ms" "ms" (ms t);
  (* the service plane, in-process: codecs and Session.handle *)
  let cmds, resps, handle_s = stream in
  let m = Array.length cmds in
  let t =
    per_call (fun () ->
        for k = 0 to m - 1 do
          (match Wire.parse_command (Wire.print_command cmds.(k)) with
          | Ok _ -> incr sink
          | Error _ -> ());
          match Wire.parse_response (Wire.print_response resps.(k)) with
          | Ok _ -> incr sink
          | Error _ -> ()
        done)
  in
  emit "line_codec_ns" "ns" (ns t /. float_of_int m);
  let batch = 32 in
  let groups =
    List.init ((m + batch - 1) / batch) (fun g ->
        let lo = g * batch in
        let len = min batch (m - lo) in
        (Array.to_list (Array.sub cmds lo len), Array.to_list (Array.sub resps lo len)))
  in
  let t =
    per_call (fun () ->
        List.iter
          (fun (cs, rs) ->
            (match Bwire.decode (Bwire.encode_commands cs) with
            | Ok _ -> incr sink
            | Error _ -> ());
            match Bwire.decode (Bwire.encode_replies rs) with
            | Ok _ -> incr sink
            | Error _ -> ())
          groups)
  in
  emit "bwire_codec_ns" "ns" (ns t /. float_of_int m);
  emit "session_handle_ns" "ns" (ns handle_s);
  ignore (Sys.opaque_identity !sink)

(* the socket-level layers, from one open-loop run *)
let emit_socket_layers (ol : open_loop) ~daemon_cpu =
  emit "socket_rtt_us" "us" (us (median ol.rtts));
  emit "generator_lag_us" "us" (us (quantile ol.lags 0.99));
  emit "daemon_cpu_us_per_req" "us"
    (us daemon_cpu /. float_of_int (Array.length ol.sent));
  emit "batch_size_mean" "count"
    (float_of_int (Array.length ol.sent) /. float_of_int (max 1 ol.frames))

(* Open-loop rates.  The NSFNet daemon serves about 50k line requests
   a second to one closed-loop client; both rates leave it idle part of
   the time, where latency is steady rather than a growing backlog. *)
let line_rate = 20_000.
let binary_rate = 100_000.

(* seconds of unsampled load before the window *)
let daemon_warm = 1.0

(* the daemon's network as the client and the in-process oracle see it *)
let nsfnet_inputs ~seed ~calls =
  let routes, matrix = Arnet_experiments.Internet.nominal () in
  inputs_of ~seed ~name:"daemon-load" ~calls routes matrix

let calls_for ~rate ~seconds =
  int_of_float (rate /. 2. *. (daemon_warm +. seconds +. 1.))

type daemon_run = { ol : open_loop; daemon_cpu : float; mismatches : int; handle_s : float }

(* a started daemon, the full open-loop run against it, its CPU time
   and the in-process oracle's verdict; [between] runs at each pause of
   the load, before the reference round trip *)
let drive_daemon ?(between = ignore) inp d ~binary ~rate ~seconds =
  let c = open_conn ~binary d.fd in
  let e = start_echo () in
  let ol =
    open_loop c ~trace:inp.trace ~tau:(tau_for inp ~rate) ~warm:daemon_warm
      ~seconds ~probe:(fun () ->
        between ();
        ping e ~n:400 ~gap:(1. /. line_rate))
  in
  let cpu0 = children_cpu () in
  finish_daemon d;
  let daemon_cpu = children_cpu () -. cpu0 in
  finish_echo e;
  let mismatches, handle_s = replay_in_process inp ol in
  { ol; daemon_cpu; mismatches; handle_s }

(* Workloads without a daemon of their own take the socket-level layers
   from a short line-protocol probe of the NSFNet daemon. *)
let socket_probe ~arn ~seed =
  let seconds = 1.0 in
  let inp = nsfnet_inputs ~seed ~calls:(calls_for ~rate:line_rate ~seconds) in
  let d = start_daemon ~arn in
  let r = drive_daemon inp d ~binary:false ~rate:line_rate ~seconds in
  check (r.mismatches = 0) "socket probe: served decisions differ from in-process";
  emit_socket_layers r.ol ~daemon_cpu:r.daemon_cpu

(* the kernels replay one trace of this many calls on every workload *)
let kernel_calls = 100_000

(* the end-to-end numbers of a timed loop: the median operation in
   reference units, and set-up *)
let emit_end_to_end m ~setup_s =
  emit "time_p50_ref" "ref" (median m.rel);
  emit "setup_s" "s" setup_s

let traced_layers ~arn ~seed routes matrix m =
  emit "op_ms" "ms" (ms (median m.op_s));
  emit "reference_ms" "ms" (ms (median m.ref_s));
  let inp = inputs_of ~seed ~name:"kernel" ~calls:kernel_calls routes matrix in
  layer_kernels ~seed inp ~stream:(session_stream inp ~limit:kernel_calls);
  socket_probe ~arn ~seed

(* ------------------------------------------------------------------ *)
(* workloads *)

type ctx = { seed : int; seconds : float; traced : bool; arn : string }

(* Paper replay: a pool of seeded traces (the paper's warm-up 10 +
   window 100) replayed through every scheme of the figure; one
   operation is one trace through all schemes. *)
let replay_duration = 110.
let replay_warmup = 10.
let trace_pool = 4

let replay kind ctx =
  let name, policies_of, network =
    match kind with
    | `Quadrangle ->
      ( "replay_quadrangle",
        (fun routes matrix ->
          [ Scheme.single_path routes; Scheme.uncontrolled routes;
            Scheme.controlled_auto ~matrix routes ]),
        fun () ->
          let graph = Builders.full_mesh ~nodes:4 ~capacity:100 in
          (Route_table.build graph, Matrix.uniform ~nodes:4 ~demand:90.) )
    | `Nsfnet ->
      ( "replay_nsfnet",
        (fun routes matrix ->
          [ Scheme.single_path routes; Scheme.uncontrolled routes;
            Scheme.controlled_auto ~matrix routes;
            Scheme.ott_krishnan ~matrix routes ]),
        Arnet_experiments.Internet.nominal )
  in
  let (routes, matrix, policies, pool), setup =
    start_setup ~seconds:ctx.seconds (fun () ->
        let routes, matrix = network () in
        let pool =
          Array.init trace_pool (fun k ->
              trace_of ~seed:ctx.seed ~name:(Printf.sprintf "replay-%d" k)
                ~duration:replay_duration matrix)
        in
        (routes, matrix, policies_of routes matrix, pool))
  in
  let graph = Route_table.graph routes in
  let names = List.map (fun (p : Engine.policy) -> p.Engine.name) policies in
  let first : Stats.t list option array = Array.make trace_pool None in
  let span_policy = Hashtbl.create 8 in
  let run_one k =
    let trace = pool.(k mod trace_pool) in
    let stats =
      List.map
        (fun (p : Engine.policy) ->
          let t0 = now () in
          let s = Engine.run ~warmup:replay_warmup ~graph ~policy:p trace in
          if ctx.traced then begin
            let prev = Option.value ~default:0. (Hashtbl.find_opt span_policy p.Engine.name) in
            Hashtbl.replace span_policy p.Engine.name (prev +. (now () -. t0))
          end;
          s)
        policies
    in
    attempted := !attempted + List.length policies;
    let ok =
      List.for_all
        (fun (s : Stats.t) ->
          s.Stats.offered
          = s.Stats.blocked + s.Stats.carried_primary + s.Stats.carried_alternate)
        stats
    in
    let ok =
      ok
      &&
      match first.(k mod trace_pool) with
      | None ->
        first.(k mod trace_pool) <- Some stats;
        true
      | Some s0 ->
        List.for_all2
          (fun (a : Stats.t) (b : Stats.t) ->
            a.Stats.blocked = b.Stats.blocked
            && a.Stats.carried_alternate = b.Stats.carried_alternate)
          s0 stats
    in
    if not ok then begin
      failed := !failed + List.length policies;
      check false (name ^ ": replay not conserved or not deterministic")
    end
  in
  (* one untimed pass warms the compiled plans and the heap *)
  run_one 0;
  Gc.full_major ();
  let k = ref 0 in
  let m =
    measure ~seconds:ctx.seconds ~setup (fun () ->
        incr k;
        run_one !k)
  in
  summary name "ms" 1e3 m.op_s;
  (* the paper's own claims, checked on each pool trace's first replay *)
  let mean_blocking policy =
    let i =
      match List.find_index (String.equal policy) names with
      | Some i -> i
      | None -> failwith ("arnbench: no policy " ^ policy)
    in
    let bs =
      Array.to_list first
      |> List.filter_map (Option.map (fun l -> Stats.blocking (List.nth l i)))
    in
    List.fold_left ( +. ) 0. bs /. float_of_int (List.length bs)
  in
  let sp = mean_blocking "single-path"
  and unc = mean_blocking "uncontrolled"
  and ctl = mean_blocking "controlled" in
  Printf.eprintf "%s: blocking single-path %.4f uncontrolled %.4f controlled %.4f\n"
    name sp unc ctl;
  (match kind with
  | `Quadrangle ->
    (* single-path routing on the full mesh is one M/M/C/C link per
       pair: blocking is Erlang B exactly *)
    let b = Arnet_erlang.Erlang_b.blocking ~offered:90. ~capacity:100 in
    check (Float.abs (sp -. b) < 0.25 *. b)
      (Printf.sprintf "%s: single-path blocking %.4f vs Erlang B %.4f" name sp b);
    check (ctl < unc) (name ^ ": controlled should beat uncontrolled at 90 E")
  | `Nsfnet -> check (ctl <= sp) (name ^ ": controlled should not lose to single-path"));
  if ctx.traced then begin
    Hashtbl.iter
      (fun p s -> Printf.eprintf "%s: span %-14s %.3f s\n" name p s)
      span_policy;
    traced_layers ~arn:ctx.arn ~seed:ctx.seed routes matrix m
  end
  else emit_end_to_end m ~setup_s:(setup_s setup)

(* ISP-scale route compilation: one operation compiles the route table
   (H = 6) and the Theorem-1 protection levels of a fixed mesh *)
let compile_nodes = 250
let compile_h = 6

let compile ctx =
  let (routes, matrix), setup =
    start_setup ~seconds:ctx.seconds (fun () ->
        mesh_network ~nodes:compile_nodes ~h:compile_h ~hot:95.)
  in
  let g = Route_table.graph routes in
  let ref_routes = Route_table.build ~h:compile_h g in
  let ref_levels = Protection.levels ref_routes matrix ~h:compile_h in
  check (Route_table.equal ref_routes routes) "compile: rebuild differs";
  Gc.full_major ();
  let build_s = ref 0. and levels_s = ref 0. in
  let m =
    measure ~seconds:ctx.seconds ~setup (fun () ->
        let t0 = now () in
        let routes = Route_table.build ~h:compile_h g in
        let t1 = now () in
        let levels = Protection.levels routes matrix ~h:compile_h in
        build_s := !build_s +. (t1 -. t0);
        levels_s := !levels_s +. (now () -. t1);
        incr attempted;
        if not (levels = ref_levels && Route_table.equal routes ref_routes) then begin
          incr failed;
          check false "compile: a rebuild differs from the first build"
        end)
  in
  summary "compile" "ms" 1e3 m.op_s;
  (* independent oracle: the per-pair reference pipeline on a smaller
     mesh from the same generator, and a patch round trip on the big one *)
  let small = (Mesh.random_mesh ~seed:ctx.seed ~nodes:60 ()).Arnet_ingest.Topo.graph in
  check
    (Route_table.equal (Route_table.build ~h:compile_h small)
       (Route_table.build_reference ~h:compile_h small))
    "compile: memoized build differs from the per-pair reference";
  let l = Graph.link g (ctx.seed mod Graph.link_count g) in
  let removed, _ =
    Route_table.patch ref_routes
      [ Route_table.Remove_link { src = l.Link.src; dst = l.Link.dst } ]
  in
  let restored, _ =
    Route_table.patch removed
      [ Route_table.Add_link
          { src = l.Link.src; dst = l.Link.dst; capacity = l.Link.capacity } ]
  in
  check (Route_table.equal restored ref_routes) "compile: patch round trip";
  if ctx.traced then begin
    Printf.eprintf "compile: spans build %.3f s, levels %.3f s over %d ops\n"
      !build_s !levels_s (Array.length m.op_s);
    traced_layers ~arn:ctx.arn ~seed:ctx.seed routes matrix m
  end
  else emit_end_to_end m ~setup_s:(setup_s setup)

(* The live daemon: [arn serve] on NSFNet, a separate process, driven
   open-loop over a Unix socket.  Set-up computes the nominal matrix,
   draws the load and starts the daemon until it answers; latency is
   per request from its due instant, in units of the echo round trip
   measured at the start of its half second. *)
let daemon ~binary ctx =
  let name = if binary then "daemon_binary" else "daemon_line" in
  let rate = if binary then binary_rate else line_rate in
  let (inp, d), setup =
    start_setup ~seconds:ctx.seconds
      ~discard:(fun (_, d) -> discard_daemon d)
      (fun () ->
        let inp = nsfnet_inputs ~seed:ctx.seed ~calls:(calls_for ~rate ~seconds:ctx.seconds) in
        (inp, start_daemon ~arn:ctx.arn))
  in
  let r =
    drive_daemon inp d ~binary ~rate ~seconds:ctx.seconds ~between:(fun () ->
        setup_tick setup)
  in
  let ol = r.ol in
  summary name "us" 1e6 ol.latencies;
  let errs = errors_in ol.got in
  attempted := Array.length ol.sent;
  failed := errs + r.mismatches;
  check (errs = 0) (Printf.sprintf "%s: %d ERR replies" name errs);
  check (r.mismatches = 0)
    (Printf.sprintf "%s: %d served decisions differ from in-process" name
       r.mismatches);
  let blocked =
    Array.fold_left (fun a x -> if x = Wire.Blocked then a + 1 else a) 0 ol.got
  in
  Printf.eprintf
    "%s: %d requests (%d in window), %d blocked, %d frames, achieved %.0f req/s, \
     generator lag p99 %.1f us, daemon cpu %.2f s\n"
    name (Array.length ol.sent) ol.window_requests blocked ol.frames
    (float_of_int ol.window_requests /. ctx.seconds)
    (us (quantile ol.lags 0.99)) r.daemon_cpu;
  if ctx.traced then begin
    (* Session.handle as timed on the served stream itself *)
    let kin =
      inputs_of ~seed:ctx.seed ~name:"kernel" ~calls:kernel_calls inp.routes
        inp.matrix
    in
    let cmds, resps, _ = session_stream kin ~limit:kernel_calls in
    layer_kernels ~seed:ctx.seed kin
      ~stream:(cmds, resps, r.handle_s /. float_of_int (Array.length ol.sent));
    emit "op_ms" "ms" (ms (median ol.latencies));
    emit "reference_ms" "ms" (ms (median ol.refs));
    emit_socket_layers ol ~daemon_cpu:r.daemon_cpu
  end
  else begin
    emit "time_p50_ref" "ref" (median ol.rels);
    emit "setup_s" "s" (setup_s setup)
  end

let workloads =
  [ ("replay_quadrangle", replay `Quadrangle);
    ("replay_nsfnet", replay `Nsfnet);
    ("compile", compile);
    ("daemon_line", daemon ~binary:false);
    ("daemon_binary", daemon ~binary:true) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let arn = ref "_build/default/bin/arn.exe" and echo = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--arn", Arg.Set_string arn, "PATH arn executable");
      ( "--daemon-cpu",
        Arg.Int (fun c -> daemon_cpu := Some c),
        "N run the daemon on CPU N (with taskset)" );
      ("--echo", Arg.Set echo, " echo standard input (the daemon's reference)") ]
  in
  let usage = "arnbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !echo then begin
    echo_loop ();
    exit 0
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "arnbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try run { seed = !seed; seconds = !seconds; traced = !trace = 1; arn = !arn }
   with e ->
     Printf.eprintf "arnbench: %s failed: %s\n" !workload (Printexc.to_string e);
     exit 1);
  print_result ()
