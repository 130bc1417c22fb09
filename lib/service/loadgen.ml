open Arnet_traffic
open Arnet_sim
module J = Arnet_obs.Jsonu

type result = {
  calls : int;
  accepted : int;
  blocked : int;
  errors : int;
  teardowns : int;
  requests : int;
  wall_s : float;
  in_flight_max : int;
  latency_buckets : (float * int) list;
  latency_sum : float;
  latency_count : int;
}

let latency_bounds =
  Arnet_obs.Metrics.log_buckets ~lo:1e-6 ~hi:1.0 ~per_decade:3

(* enough virtual time to cover [calls] arrivals at the matrix's
   aggregate rate; regenerated (same seed, fresh stream) with a doubled
   window in the rare case the Poisson draw came up short.  The load is
   the trace's first [calls] calls. *)
let generate_calls ~seed ~calls matrix =
  let total = Matrix.total matrix in
  if total <= 0. then invalid_arg "Loadgen.run: matrix offers no traffic";
  let rec attempt duration =
    let rng = Rng.create ~seed in
    let trace = Trace.generate ~rng ~duration matrix in
    if Trace.call_count trace >= calls then trace
    else attempt (2. *. duration)
  in
  attempt ((float_of_int calls /. total *. 1.2) +. 1.)

type per_conn = {
  mutable c_accepted : int;
  mutable c_blocked : int;
  mutable c_errors : int;
  mutable c_teardowns : int;
  histogram : Arnet_obs.Metrics.histogram;
}

(* requests written but not yet answered, summed over every connection;
   [peak] is the high-water mark the result reports *)
type inflight = { cur : int Atomic.t; peak : int Atomic.t }

let inflight_enter fl k =
  let now = k + Atomic.fetch_and_add fl.cur k in
  let rec bump () =
    let old = Atomic.get fl.peak in
    if now > old && not (Atomic.compare_and_set fl.peak old now) then bump ()
  in
  bump ()

let inflight_exit fl k = ignore (Atomic.fetch_and_add fl.cur (-k) : int)

(* one reply frame off the (buffered) channel: length word, payload,
   decode.  Channel buffering means one [read] syscall typically covers
   the whole frame — the client-side half of the batch amortization *)
let read_reply_frame ic =
  let hdr = Bytes.create 4 in
  really_input ic hdr 0 4;
  let n = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xFFFFFFFF in
  if n > Bwire.max_frame_payload then
    failwith
      (Printf.sprintf "Loadgen: reply frame declares %d bytes (limit %d)" n
         Bwire.max_frame_payload);
  let payload = Bytes.create n in
  really_input ic payload 0 n;
  match Bwire.decode (Bytes.to_string hdr ^ Bytes.to_string payload) with
  | Ok (Bwire.Replies replies, _) -> replies
  | Ok (Bwire.Commands _, _) -> failwith "Loadgen: command frame from daemon"
  | Error e ->
    failwith ("Loadgen: bad reply frame: " ^ Bwire.error_to_string e)

(* The event walk over the [calls] (indices into [trace]) in engine
   order: departures at or before an arrival instant release their
   circuits first.  Commands accumulate into a batch of up to [batch]
   and ship in one round: one line each in line mode, where the batch is
   one, or one Bwire frame each way after [HELLO binary].  A departure
   is only scheduled once its SETUP's verdict is read, so a teardown
   never rides in the same batch as (or an earlier one than) its own
   setup; each request's recorded latency is its batch's round-trip
   time *)
let drive ~binary ~timestamps ~retry_for ~batch ~inflight ~addr
    (trace : Trace.t) calls =
  let registry = Arnet_obs.Metrics.create () in
  let acc =
    { c_accepted = 0;
      c_blocked = 0;
      c_errors = 0;
      c_teardowns = 0;
      histogram =
        Arnet_obs.Metrics.histogram registry ~buckets:latency_bounds
          "arn_load_request_latency_seconds" }
  in
  let ic, oc = Server.connect ~retry_for addr in
  Fun.protect
    ~finally:(fun () ->
      (* a line connection says QUIT; closing a binary one is the goodbye *)
      (if not binary then
         try ignore (Server.request ic oc Wire.Quit : Wire.response)
         with End_of_file | Failure _ | Sys_error _ -> ());
      try close_in ic with Sys_error _ -> ())
    (fun () ->
      let exchange =
        if binary then begin
          (match Server.request ic oc (Wire.Hello { mode = "binary" }) with
          | Wire.Done -> ()
          | resp ->
            failwith
              ("Loadgen: HELLO binary refused: " ^ Wire.print_response resp));
          fun cmds ->
            output_string oc (Bwire.encode_commands cmds);
            flush oc;
            read_reply_frame ic
        end
        else List.map (Server.request ic oc)
      in
      let departures = Event_queue.create () in
      (* pending batch, newest first, with the metadata the verdict
         needs: the originating call for a SETUP, nothing for a
         TEARDOWN *)
      let pending = ref [] in
      let pending_n = ref 0 in
      let flush_batch () =
        if !pending_n > 0 then begin
          let items = List.rev !pending in
          let k = !pending_n in
          pending := [];
          pending_n := 0;
          inflight_enter inflight k;
          let t0 = Unix.gettimeofday () in
          let replies = exchange (List.map fst items) in
          let rtt = Unix.gettimeofday () -. t0 in
          inflight_exit inflight k;
          if List.length replies <> k then
            failwith
              (Printf.sprintf "Loadgen: %d commands answered by %d verdicts"
                 k (List.length replies));
          List.iter2
            (fun (_, meta) resp ->
              Arnet_obs.Metrics.observe acc.histogram rtt;
              match (meta, resp) with
              | Some i, Wire.Admitted { id; _ } ->
                acc.c_accepted <- acc.c_accepted + 1;
                Event_queue.push_at departures ~times:trace.Trace.ends i id
              | Some _, Wire.Blocked -> acc.c_blocked <- acc.c_blocked + 1
              | Some _, _ -> acc.c_errors <- acc.c_errors + 1
              | None, Wire.Done -> acc.c_teardowns <- acc.c_teardowns + 1
              | None, _ ->
                acc.c_errors <- acc.c_errors + 1;
                acc.c_teardowns <- acc.c_teardowns + 1)
            items replies
        end
      in
      let push_cmd cmd meta =
        pending := (cmd, meta) :: !pending;
        incr pending_n;
        if !pending_n >= batch then flush_batch ()
      in
      (* departures due by [time]: a flush inside the loop may admit
         setups whose departures are also due, so drain to fixpoint *)
      let rec release time =
        let due = ref [] in
        Event_queue.pop_until departures ~time ~f:(fun _ id ->
            due := id :: !due);
        match List.rev !due with
        | [] -> ()
        | ids ->
          List.iter (fun id -> push_cmd (Wire.Teardown { id }) None) ids;
          release time
      in
      Array.iter
        (fun i ->
          release trace.Trace.times.(i);
          let time = if timestamps then Some trace.Trace.times.(i) else None in
          push_cmd
            (Wire.Setup
               { src = trace.Trace.srcs.(i); dst = trace.Trace.dsts.(i); time })
            (Some i))
        calls;
      flush_batch ();
      let rec drain () =
        match Event_queue.pop departures with
        | Some (_, id) ->
          push_cmd (Wire.Teardown { id }) None;
          drain ()
        | None -> ()
      in
      drain ();
      flush_batch ());
  acc

let run ?(connections = 1) ?(timestamps = true) ?(retry_for = 5.)
    ?(binary = false) ?(batch = 1) ~seed ~calls ~matrix ~addr () =
  if calls < 1 then invalid_arg "Loadgen.run: calls < 1";
  if connections < 1 then invalid_arg "Loadgen.run: connections < 1";
  if batch < 1 || batch > Bwire.max_batch then
    invalid_arg
      (Printf.sprintf "Loadgen.run: batch outside 1..%d" Bwire.max_batch);
  if batch > 1 && not binary then
    invalid_arg "Loadgen.run: batch > 1 needs binary:true";
  let trace = generate_calls ~seed ~calls matrix in
  let inflight = { cur = Atomic.make 0; peak = Atomic.make 0 } in
  let drive_one =
    drive ~binary ~timestamps ~retry_for ~batch ~inflight ~addr trace
  in
  let shards =
    if connections = 1 then [ Array.init calls Fun.id ]
    else
      List.init connections (fun c ->
          Array.of_seq
            (Seq.filter
               (fun i -> i mod connections = c)
               (Seq.init calls Fun.id)))
      |> List.filter (fun shard -> Array.length shard > 0)
  in
  let t0 = Unix.gettimeofday () in
  let results =
    match shards with
    | [ only ] -> [ drive_one only ]
    | shards ->
      (* threads cannot return values: collect per-connection results
         (or the first failure) through slots *)
      let slots = Array.make (List.length shards) None in
      let threads =
        List.mapi
          (fun i shard ->
            Thread.create
              (fun () ->
                slots.(i) <-
                  Some (try Ok (drive_one shard) with e -> Error e))
              ())
          shards
      in
      List.iter Thread.join threads;
      Array.to_list slots
      |> List.map (function
           | Some (Ok r) -> r
           | Some (Error e) -> raise e
           | None -> failwith "Loadgen.run: connection thread died silently")
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let accepted = sum (fun r -> r.c_accepted)
  and blocked = sum (fun r -> r.c_blocked)
  and errors = sum (fun r -> r.c_errors)
  and teardowns = sum (fun r -> r.c_teardowns) in
  (* bucket bounds are shared, so cumulative counts merge by addition *)
  let merged_buckets =
    List.fold_left
      (fun acc r ->
        let buckets = Arnet_obs.Metrics.histogram_buckets r.histogram in
        match acc with
        | [] -> buckets
        | acc ->
          List.map2
            (fun (bound, n) (_, n') -> (bound, n + n'))
            acc buckets)
      [] results
  in
  let latency_sum =
    List.fold_left
      (fun a r -> a +. Arnet_obs.Metrics.histogram_sum r.histogram)
      0. results
  in
  let latency_count =
    List.fold_left
      (fun a r -> a + Arnet_obs.Metrics.histogram_count r.histogram)
      0 results
  in
  { calls;
    accepted;
    blocked;
    errors;
    teardowns;
    requests = calls + teardowns;
    wall_s;
    in_flight_max = Atomic.get inflight.peak;
    latency_buckets = merged_buckets;
    latency_sum;
    latency_count }

let requests_per_second r =
  if r.wall_s > 0. then float_of_int r.requests /. r.wall_s else 0.

let mean_latency r =
  if r.latency_count = 0 then 0.
  else r.latency_sum /. float_of_int r.latency_count

let quantile r q =
  if q <= 0. || q > 1. then invalid_arg "Loadgen.quantile: q outside (0, 1]";
  match r.latency_buckets with
  | [] -> 0.
  | buckets ->
    let total =
      match List.rev buckets with (_, n) :: _ -> n | [] -> 0
    in
    if total = 0 then 0.
    else begin
      let target =
        int_of_float (ceil (q *. float_of_int total))
      in
      let rec find last_finite = function
        | [] -> last_finite
        | (bound, n) :: rest ->
          if n >= target then
            if Float.is_finite bound then bound else last_finite
          else
            find (if Float.is_finite bound then bound else last_finite) rest
      in
      find 0. buckets
    end

let to_json r =
  J.Obj
    [ ("calls", J.Int r.calls);
      ("accepted", J.Int r.accepted);
      ("blocked", J.Int r.blocked);
      ("errors", J.Int r.errors);
      ("teardowns", J.Int r.teardowns);
      ("requests", J.Int r.requests);
      ("wall_s", J.Float r.wall_s);
      ("requests_per_s", J.Float (requests_per_second r));
      ("requests_in_flight", J.Int r.in_flight_max);
      ("blocking",
       J.Float
         (if r.calls > 0 then float_of_int r.blocked /. float_of_int r.calls
          else 0.));
      ("latency_mean_s", J.Float (mean_latency r));
      ("latency_p50_s", J.Float (quantile r 0.5));
      ("latency_p95_s", J.Float (quantile r 0.95));
      ("latency_p99_s", J.Float (quantile r 0.99));
      ("latency_max_s", J.Float (quantile r 1.0)) ]

let print ppf r =
  Format.fprintf ppf "calls      %d (accepted %d, blocked %d, errors %d)@."
    r.calls r.accepted r.blocked r.errors;
  Format.fprintf ppf "blocking   %.4f@."
    (if r.calls > 0 then float_of_int r.blocked /. float_of_int r.calls
     else 0.);
  Format.fprintf ppf "requests   %d in %.2fs  (%.0f req/s, %d in flight max)@."
    r.requests r.wall_s (requests_per_second r) r.in_flight_max;
  Format.fprintf ppf
    "latency    mean %.1f us   p50 %.1f us   p95 %.1f us   p99 %.1f us   \
     max %.1f us@."
    (1e6 *. mean_latency r)
    (1e6 *. quantile r 0.5)
    (1e6 *. quantile r 0.95)
    (1e6 *. quantile r 0.99)
    (1e6 *. quantile r 1.0)
