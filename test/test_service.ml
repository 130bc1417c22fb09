(* The admission-control daemon: wire codec round-trips (qcheck),
   protocol error handling, decision equivalence with the batch
   simulator, failure rerouting, online reload under drifting load,
   drain/snapshot semantics, and end-to-end determinism over a real
   Unix socket. *)

open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim
open Arnet_core
open Arnet_service

(* ------------------------------------------------------------------ *)
(* wire codec: print/parse round-trips for every constructor *)

let time_gen =
  (* None, exact decimals, and repeating fractions that need the long
     float form — all must survive the wire *)
  QCheck.Gen.(
    oneof
      [ return None;
        map (fun n -> Some (float_of_int n /. 8.)) (int_bound 10_000);
        map2
          (fun a b -> Some (float_of_int a /. float_of_int (b + 1)))
          (int_bound 1_000_000) (int_bound 997) ])

let word_gen =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 8))

let command_gen =
  QCheck.Gen.(
    oneof
      [ map3
          (fun src dst time -> Wire.Setup { src; dst; time })
          (int_range (-3) 40) (int_range (-3) 40) time_gen;
        map (fun id -> Wire.Teardown { id }) (int_bound 1_000_000);
        map (fun link -> Wire.Fail { link }) (int_range (-2) 500);
        map (fun link -> Wire.Repair { link }) (int_range (-2) 500);
        return Wire.Reload;
        map3
          (fun src dst capacity -> Wire.Link_add { src; dst; capacity })
          (int_range (-2) 40) (int_range (-2) 40) (int_range (-2) 500);
        map2
          (fun src dst -> Wire.Link_del { src; dst })
          (int_range (-2) 40) (int_range (-2) 40);
        return Wire.Stats;
        return Wire.Drain;
        return Wire.Quit;
        map (fun mode -> Wire.Hello { mode }) word_gen ])

let response_gen =
  QCheck.Gen.(
    oneof
      [ map2
          (fun id path -> Wire.Admitted { id; path })
          (int_bound 1_000_000)
          (list_size (int_range 2 6) (int_bound 50));
        return Wire.Blocked;
        return Wire.Done;
        map (fun changed -> Wire.Reloaded { changed }) (int_bound 200);
        map (fun recomputed -> Wire.Patched { recomputed }) (int_bound 500);
        map3
          (fun (accepted, blocked, torn_down) (dropped, failovers, active)
               (reloads, failed, draining) ->
            Wire.Stats_reply
              { Wire.accepted; blocked; torn_down; dropped; failovers;
                active; reloads; failed; draining })
          (triple (int_bound 9999) (int_bound 9999) (int_bound 9999))
          (triple (int_bound 9999) (int_bound 9999) (int_bound 9999))
          (triple (int_bound 9999)
             (list_size (int_bound 5) (int_bound 40))
             bool);
        map2
          (fun code words ->
            Wire.Err { code; detail = String.concat " " words })
          word_gen
          (list_size (int_bound 4) word_gen) ])

let prop_command_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"Wire: parse (print cmd) = cmd"
    (QCheck.make command_gen ~print:Wire.print_command)
    (fun c ->
      match Wire.parse_command (Wire.print_command c) with
      | Ok c' -> Wire.equal_command c c'
      | Error _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"Wire: parse (print resp) = resp"
    (QCheck.make response_gen ~print:Wire.print_response)
    (fun r ->
      match Wire.parse_response (Wire.print_response r) with
      | Ok r' -> Wire.equal_response r r'
      | Error _ -> false)

(* well-formed lines, garbage, and the adversarial spacing, signs and
   number forms in between *)
let scanner_line_gen =
  QCheck.Gen.(
    let soup =
      string_size
        ~gen:
          (oneofl
             [ 'S'; 'E'; 'T'; 'U'; 'P'; 's'; 'e'; 't'; 'u'; 'p'; 'T'; 'D';
               'O'; 'W'; 'N'; 'R'; 'A'; 'I'; 'L'; '0'; '1'; '2'; '7'; '9';
               ' '; ' '; ' '; '\t'; '\r'; '-'; '+'; '.'; 'x'; '_' ])
        (int_range 0 28)
    in
    let pad = oneofl [ ""; " "; "  "; "\t"; " \t " ] in
    let num =
      oneofl
        [ "0"; "1"; "39"; "65536"; "-1"; "007"; "1_0"; "0x2"; "1e2"; "2.5";
          "-0.5"; "nan"; "inf"; "."; "x" ]
    in
    let verb =
      oneofl [ "SETUP"; "setup"; "SetUp"; "TEARDOWN"; "teardown"; "SETUPX" ]
    in
    let templated =
      map
        (fun ((p0, v), (p1, a), (p2, b), (p3, c)) ->
          p0 ^ v ^ p1 ^ " " ^ a ^ p2 ^ " " ^ b ^ p3 ^ " " ^ c)
        (quad (pair pad verb) (pair pad num) (pair pad num) (pair pad num))
    in
    let short =
      map2 (fun v a -> v ^ " " ^ a) verb num
    in
    oneof [ map Wire.print_command command_gen; templated; short; soup ])

(* the parser answers every line with a command or a typed error, and
   what it accepts prints back to a line that parses to the same *)
let prop_parse_command_total =
  QCheck.Test.make ~count:3000 ~name:"Wire: parse_command total + reprint"
    (QCheck.make scanner_line_gen ~print:String.escaped)
    (fun line ->
      match Wire.parse_command line with
      | Error (code, _) -> code = "bad-command" || code = "bad-argument"
      | Ok c -> (
        match Wire.parse_command (Wire.print_command c) with
        | Ok c' -> Wire.equal_command c c'
        | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* binary batch framing: decode (encode batch) = batch, and malformed
   bytes decode to the typed error, never an exception *)

let bwire_command_gen =
  (* every constructor the codec must carry: the dense SETUP/TEARDOWN
     tags and the escaped-line fallback for the rest *)
  QCheck.Gen.(
    oneof
      [ map3
          (fun src dst time -> Wire.Setup { src; dst; time })
          (int_bound 65535) (int_bound 65535)
          (oneof
             [ return None;
               map (fun n -> Some (float_of_int n /. 8.)) (int_bound 10_000);
               map2
                 (fun a b -> Some (float_of_int a /. float_of_int (b + 1)))
                 (int_bound 1_000_000) (int_bound 997) ]);
        map (fun id -> Wire.Teardown { id }) (int_bound 0xFFFF_FFFF);
        map (fun link -> Wire.Fail { link }) (int_bound 500);
        map (fun link -> Wire.Repair { link }) (int_bound 500);
        return Wire.Reload;
        map3
          (fun src dst capacity -> Wire.Link_add { src; dst; capacity })
          (int_bound 40) (int_bound 40) (int_bound 500);
        map2
          (fun src dst -> Wire.Link_del { src; dst })
          (int_bound 40) (int_bound 40);
        return Wire.Stats;
        return Wire.Drain;
        return Wire.Quit;
        map (fun mode -> Wire.Hello { mode }) word_gen ])

let prop_bwire_commands_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Bwire: decode (encode cmds) = cmds"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 40) bwire_command_gen)
       ~print:(fun l ->
         String.concat "; " (List.map Wire.print_command l)))
    (fun cmds ->
      let s = Bwire.encode_commands cmds in
      match Bwire.decode s with
      | Ok (Bwire.Commands cmds', n) ->
        n = String.length s
        && List.length cmds = List.length cmds'
        && List.for_all2 Wire.equal_command cmds cmds'
      | _ -> false)

let prop_bwire_replies_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Bwire: decode (encode replies) = replies"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 40) response_gen)
       ~print:(fun l ->
         String.concat "; " (List.map Wire.print_response l)))
    (fun resps ->
      let s = Bwire.encode_replies resps in
      match Bwire.decode s with
      | Ok (Bwire.Replies resps', n) ->
        n = String.length s
        && List.length resps = List.length resps'
        && List.for_all2 Wire.equal_response resps resps'
      | _ -> false)

let test_bwire_malformed () =
  let frame =
    Bwire.encode_commands
      [ Wire.Setup { src = 0; dst = 1; time = Some 2.5 }; Wire.Stats ]
  in
  (* every strict prefix is Truncated, with have/need consistent *)
  for i = 0 to String.length frame - 1 do
    match Bwire.decode (String.sub frame 0 i) with
    | Error (Bwire.Truncated { have; need }) ->
      Alcotest.(check int) "have is what arrived" i have;
      Alcotest.(check bool) "need beyond have" true (need > have);
      Alcotest.(check bool) "need within the full frame" true
        (need <= String.length frame)
    | _ -> Alcotest.failf "prefix of %d bytes should be Truncated" i
  done;
  (* a length word past the ceiling is Oversized, not a huge buffer *)
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (Bwire.max_frame_payload + 1));
  (match Bwire.decode (Bytes.to_string b) with
  | Error (Bwire.Oversized { declared; limit }) ->
    Alcotest.(check int) "declared" (Bwire.max_frame_payload + 1) declared;
    Alcotest.(check int) "limit" Bwire.max_frame_payload limit
  | _ -> Alcotest.fail "oversized length word should be refused");
  (* unknown kind byte *)
  let b = Bytes.of_string frame in
  Bytes.set b 4 '\x07';
  (match Bwire.decode (Bytes.to_string b) with
  | Error (Bwire.Corrupt _) -> ()
  | _ -> Alcotest.fail "unknown kind should be Corrupt");
  (* trailing bytes inside a well-formed frame *)
  let b = Bytes.of_string (frame ^ "\x00") in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length frame - 4 + 1));
  (match Bwire.decode (Bytes.to_string b) with
  | Error (Bwire.Corrupt _) -> ()
  | _ -> Alcotest.fail "trailing bytes should be Corrupt");
  (* frames decode back to back through [off] *)
  let second = Bwire.encode_replies [ Wire.Blocked; Wire.Done ] in
  let both = frame ^ second in
  match Bwire.decode both with
  | Ok (Bwire.Commands _, n) -> (
    match Bwire.decode ~off:n both with
    | Ok (Bwire.Replies [ Wire.Blocked; Wire.Done ], n2) ->
      Alcotest.(check int) "both frames consumed" (String.length both)
        (n + n2)
    | _ -> Alcotest.fail "second frame should decode at off")
  | _ -> Alcotest.fail "first frame should decode"

let test_malformed_commands () =
  let expect code line =
    match Wire.parse_command line with
    | Error (c, _) -> Alcotest.(check string) line code c
    | Ok c ->
      Alcotest.failf "%S parsed as %s" line (Wire.print_command c)
  in
  expect "bad-command" "";
  expect "bad-command" "   ";
  expect "bad-command" "FLOOP 1 2";
  expect "bad-argument" "SETUP 1";
  expect "bad-argument" "SETUP 1 2 3 4";
  expect "bad-argument" "SETUP one 2";
  expect "bad-argument" "SETUP 1 2 -0.5";
  expect "bad-argument" "SETUP 1 2 nan";
  expect "bad-argument" "TEARDOWN";
  expect "bad-argument" "TEARDOWN 1.5";
  expect "bad-argument" "FAIL";
  expect "bad-argument" "REPAIR x";
  expect "bad-argument" "RELOAD now";
  expect "bad-argument" "STATS 1";
  expect "bad-argument" "DRAIN please";
  expect "bad-argument" "QUIT 0";
  (* a tab is inside the token, and no such mode prints back *)
  expect "bad-argument" "HELLO bin\tary";
  (* case-insensitive verbs, tolerant spacing *)
  (match Wire.parse_command "  setup  0   2  " with
  | Ok (Wire.Setup { src = 0; dst = 2; time = None }) -> ()
  | _ -> Alcotest.fail "lowercase SETUP with extra spaces should parse")

let test_malformed_responses () =
  let expect line =
    match Wire.parse_response line with
    | Error _ -> ()
    | Ok r ->
      Alcotest.failf "%S parsed as %s" line (Wire.print_response r)
  in
  expect "";
  expect "WAT";
  expect "ADMITTED 3";
  expect "ADMITTED 3 5";
  (* single-node path *)
  expect "ADMITTED x 0-1";
  expect "RELOADED soon";
  expect "STATS accepted=1";
  (* missing fields *)
  expect "ERR";
  (* ERR detail keeps inner spacing *)
  match Wire.parse_response "ERR bad-argument usage: SETUP <src> <dst>" with
  | Ok (Wire.Err { code = "bad-argument"; detail }) ->
    Alcotest.(check string) "detail" "usage: SETUP <src> <dst>" detail
  | _ -> Alcotest.fail "ERR with detail should parse"

(* ------------------------------------------------------------------ *)
(* protocol: session-level errors *)

let quadrangle ?(capacity = 20) () = Builders.full_mesh ~nodes:4 ~capacity

let test_session_errors () =
  let st = State.create (quadrangle ()) in
  let expect_err code resp =
    match resp with
    | Wire.Err { code = c; _ } -> Alcotest.(check string) "error code" code c
    | r -> Alcotest.failf "expected ERR %s, got %s" code (Wire.print_response r)
  in
  expect_err "bad-argument" (State.setup st ~src:0 ~dst:0 ~time:None);
  expect_err "bad-argument" (State.setup st ~src:(-1) ~dst:2 ~time:None);
  expect_err "bad-argument" (State.setup st ~src:0 ~dst:99 ~time:None);
  expect_err "unknown-call" (State.teardown st ~id:7);
  expect_err "no-such-link" (State.fail st ~link:999);
  expect_err "no-such-link" (State.repair st ~link:(-1));
  (* double teardown *)
  (match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted { id; _ } ->
    (match State.teardown st ~id with
    | Wire.Done -> ()
    | r -> Alcotest.failf "teardown: %s" (Wire.print_response r));
    expect_err "unknown-call" (State.teardown st ~id)
  | r -> Alcotest.failf "setup: %s" (Wire.print_response r));
  (* malformed lines answer a typed ERR and keep the connection *)
  (match Session.handle_line st "SETUP 1" with
  | Wire.Err { code = "bad-argument"; _ }, `Continue -> ()
  | r, _ ->
    Alcotest.failf "handle_line: %s" (Wire.print_response r));
  (match Session.handle_line st "QUIT" with
  | Wire.Done, `Quit -> ()
  | r, _ -> Alcotest.failf "QUIT: %s" (Wire.print_response r));
  (* draining refuses new work but allows teardown *)
  (match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted { id; _ } ->
    ignore (State.drain st : Wire.response);
    expect_err "draining" (State.setup st ~src:0 ~dst:2 ~time:None);
    Alcotest.(check bool) "not drained yet" false (State.drained st);
    (match State.teardown st ~id with
    | Wire.Done -> ()
    | r -> Alcotest.failf "teardown while draining: %s" (Wire.print_response r));
    Alcotest.(check bool) "drained" true (State.drained st)
  | r -> Alcotest.failf "setup: %s" (Wire.print_response r))

(* ------------------------------------------------------------------ *)
(* decisions: the daemon decides as the batch simulator, call for call *)

(* replay a trace through the state in the engine's event order:
   departures due at or before each arrival go first *)
let replay st (trace : Trace.t) =
  let departures = Event_queue.create () in
  let accepted = ref 0 and blocked = ref 0 in
  Array.iteri
    (fun i time ->
      Event_queue.pop_until departures ~time
        ~f:(fun _ id ->
          match State.teardown st ~id with
          | Wire.Done -> ()
          (* a call a FAIL dropped is no longer active *)
          | Wire.Err { code = "unknown-call"; _ }
            when (State.stats st).Wire.dropped > 0 -> ()
          | r -> Alcotest.failf "teardown: %s" (Wire.print_response r));
      match
        State.setup st ~src:trace.Trace.srcs.(i) ~dst:trace.Trace.dsts.(i)
          ~time:(Some time)
      with
      | Wire.Admitted { id; _ } ->
        incr accepted;
        Event_queue.push_at departures ~times:trace.Trace.ends i id
      | Wire.Blocked -> incr blocked
      | r -> Alcotest.failf "setup: %s" (Wire.print_response r))
    trace.Trace.times;
  (!accepted, !blocked)

let test_matches_batch_simulator () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let trace =
    Trace.generate ~rng:(Rng.create ~seed:7) ~duration:80. matrix
  in
  let routes = Route_table.build g in
  let stats =
    Engine.run ~warmup:0. ~graph:g
      ~policy:(Scheme.controlled_auto ~matrix routes)
      trace
  in
  let st = State.create ~matrix g in
  let accepted, blocked = replay st trace in
  Alcotest.(check int) "same offered" stats.Stats.offered (accepted + blocked);
  Alcotest.(check int) "same blocked" stats.Stats.blocked blocked;
  let s = State.stats st in
  Alcotest.(check int) "stats agree" accepted s.Wire.accepted;
  Alcotest.(check int) "stats agree" blocked s.Wire.blocked

(* eight FAIL/REPAIR events on three NSFNet links, one cut twice *)
let nsfnet_script =
  let module S = Arnet_sim.Script in
  S.of_events
    [ { S.time = 3.; link = 3; action = S.Fail };
      { S.time = 4.; link = 11; action = S.Fail };
      { S.time = 6.; link = 20; action = S.Fail };
      { S.time = 7.; link = 3; action = S.Repair };
      { S.time = 9.; link = 3; action = S.Fail };
      { S.time = 10.; link = 11; action = S.Repair };
      { S.time = 11.; link = 20; action = S.Repair };
      { S.time = 12.5; link = 3; action = S.Repair } ]

let nsfnet_trace ~duration matrix =
  Trace.generate
    ~rng:(Rng.substream (Rng.create ~seed:1) "trace")
    ~duration matrix

(* the daemon under a failure script on nominal NSFNet, frozen per load:
   its event stream folded by a counter sink (offered, blocked, carried
   primary and alternate, primary attempts and admissions, alternate
   rejections, sum(link * rejections)), then failovers and dropped *)
let daemon_runs () =
  let routes, nominal = Arnet_experiments.Internet.nominal () in
  let g = Route_table.graph routes in
  List.map
    (fun scale ->
      let matrix = Matrix.scale nominal scale in
      let counters = Arnet_obs.Counters.create () in
      let st =
        State.create ~matrix ~failure_script:nsfnet_script
          ~observer:(Arnet_obs.Counters.emit counters) g
      in
      ignore (replay st (nsfnet_trace ~duration:14. matrix) : int * int);
      let s = State.stats st in
      match Arnet_obs.Counters.runs counters with
      | [ r ] ->
        ( Printf.sprintf "%.1f" scale,
          [ r.Arnet_obs.Counters.offered;
            r.Arnet_obs.Counters.blocked;
            r.Arnet_obs.Counters.carried_primary;
            r.Arnet_obs.Counters.carried_alternate;
            r.Arnet_obs.Counters.primary_attempts;
            r.Arnet_obs.Counters.primary_admitted;
            r.Arnet_obs.Counters.alternate_rejections;
            List.fold_left
              (fun acc (link, count) -> acc + (link * count))
              0
              (Arnet_obs.Counters.rejections_by_link r);
            s.Wire.failovers;
            s.Wire.dropped ] )
      | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs))
    [ 1.0; 1.3 ]

let test_daemon_golden () =
  let frozen =
    [ ("1.0",
        [ 13317; 1889; 10854; 574; 13317; 10854; 11261; 233314; 389; 259 ]);
      ("1.3",
        [ 17428; 4192; 12940; 296; 17428; 12940; 25810; 434378; 218; 297 ]) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "offered, blocked, primary, alternate, primary attempts and \
     admissions, rejections, sum(link * rejections), failovers, dropped"
    frozen (daemon_runs ())

(* a failed link is a link of capacity 0 to the daemon and a full link to
   the engine: both refuse it, so one trace and one failure script give
   the same verdicts and failovers.  [dropped] may differ: a call ending
   between a FAIL and the next arrival is torn down first by [replay]
   but dropped by the engine *)
let test_daemon_equals_engine_under_failures () =
  let routes, nominal = Arnet_experiments.Internet.nominal () in
  let g = Route_table.graph routes in
  List.iter
    (fun scale ->
      let matrix = Matrix.scale nominal scale in
      let trace = nsfnet_trace ~duration:20. matrix in
      let stats =
        Engine.run ~warmup:0. ~script:nsfnet_script ~graph:g
          ~policy:(Scheme.controlled_auto ~matrix routes)
          trace
      in
      let st = State.create ~matrix ~failure_script:nsfnet_script g in
      let accepted, blocked = replay st trace in
      let label what = Printf.sprintf "%.1fx %s" scale what in
      Alcotest.(check int) (label "accepted")
        (stats.Stats.offered - stats.Stats.blocked)
        accepted;
      Alcotest.(check int) (label "blocked") stats.Stats.blocked blocked;
      Alcotest.(check int) (label "failovers") stats.Stats.failovers
        (State.stats st).Wire.failovers)
    [ 1.0; 1.3 ]

let test_failure_rerouting () =
  let g = quadrangle ~capacity:5 () in
  let st = State.create g in
  let direct =
    (Route_table.primary (State.routes st) ~src:0 ~dst:1).Path.link_ids.(0)
  in
  (* an admitted call holding the link is dropped with it *)
  let id =
    match State.setup st ~src:0 ~dst:1 ~time:None with
    | Wire.Admitted { id; path } ->
      Alcotest.(check (list int)) "direct path" [ 0; 1 ] path;
      id
    | r -> Alcotest.failf "setup: %s" (Wire.print_response r)
  in
  (match State.fail st ~link:direct with
  | Wire.Done -> ()
  | r -> Alcotest.failf "fail: %s" (Wire.print_response r));
  Alcotest.(check int) "call dropped" 0 (State.active_calls st);
  Alcotest.(check int) "dropped counted" 1 (State.stats st).Wire.dropped;
  (match State.teardown st ~id with
  | Wire.Err { code = "unknown-call"; _ } -> ()
  | r -> Alcotest.failf "teardown of dropped call: %s" (Wire.print_response r));
  Alcotest.(check (list int)) "failed listed" [ direct ]
    (State.failed_links st);
  (* new calls route around the dead link *)
  (match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted { path; _ } ->
    Alcotest.(check bool) "rerouted on an alternate" true
      (List.length path > 2)
  | r -> Alcotest.failf "setup after fail: %s" (Wire.print_response r));
  (* repair restores the primary *)
  (match State.repair st ~link:direct with
  | Wire.Done -> ()
  | r -> Alcotest.failf "repair: %s" (Wire.print_response r));
  Alcotest.(check (list int)) "none failed" [] (State.failed_links st);
  match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted { path; _ } ->
    Alcotest.(check (list int)) "direct again" [ 0; 1 ] path
  | r -> Alcotest.failf "setup after repair: %s" (Wire.print_response r)

let test_all_paths_dead_blocks () =
  let g = quadrangle ~capacity:5 () in
  let st = State.create g in
  (* kill every link out of node 0: nothing can leave *)
  Array.iter
    (fun (l : Link.t) ->
      if l.Link.src = 0 then
        match State.fail st ~link:l.Link.id with
        | Wire.Done -> ()
        | r -> Alcotest.failf "fail: %s" (Wire.print_response r))
    (Graph.links g);
  match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Blocked -> ()
  | r -> Alcotest.failf "expected BLOCKED, got %s" (Wire.print_response r)

let test_fail_repair_edge_cases () =
  let g = quadrangle ~capacity:5 () in
  let st = State.create g in
  let direct =
    (Route_table.primary (State.routes st) ~src:0 ~dst:1).Path.link_ids.(0)
  in
  let expect_done what resp =
    match resp with
    | Wire.Done -> ()
    | r -> Alcotest.failf "%s: %s" what (Wire.print_response r)
  in
  (* out-of-range links answer a typed ERR, not an exception *)
  (match State.fail st ~link:(Graph.link_count g) with
  | Wire.Err { code = "no-such-link"; _ } -> ()
  | r -> Alcotest.failf "fail out of range: %s" (Wire.print_response r));
  (match State.repair st ~link:(-1) with
  | Wire.Err { code = "no-such-link"; _ } -> ()
  | r -> Alcotest.failf "repair out of range: %s" (Wire.print_response r));
  (* REPAIR of a link that never failed is an idempotent no-op *)
  expect_done "repair of healthy link" (State.repair st ~link:direct);
  Alcotest.(check (list int)) "nothing failed" [] (State.failed_links st);
  (* an admitted call, then a double FAIL: the second changes nothing *)
  (match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted _ -> ()
  | r -> Alcotest.failf "setup: %s" (Wire.print_response r));
  expect_done "first fail" (State.fail st ~link:direct);
  expect_done "second fail (idempotent)" (State.fail st ~link:direct);
  Alcotest.(check int) "victim dropped exactly once" 1
    (State.stats st).Wire.dropped;
  Alcotest.(check (list int)) "listed exactly once" [ direct ]
    (State.failed_links st);
  (* SETUP racing the failed primary lands on an alternate and is
     counted as a failover *)
  (match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted { path; _ } ->
    Alcotest.(check bool) "routed around the cut" true (List.length path > 2)
  | r -> Alcotest.failf "setup racing the cut: %s" (Wire.print_response r));
  Alcotest.(check int) "failover counted" 1 (State.stats st).Wire.failovers;
  (* after repair the primary carries again, with no new failover *)
  expect_done "repair" (State.repair st ~link:direct);
  (match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted { path; _ } ->
    Alcotest.(check (list int)) "direct again" [ 0; 1 ] path
  | r -> Alcotest.failf "setup after repair: %s" (Wire.print_response r));
  Alcotest.(check int) "failovers unchanged" 1 (State.stats st).Wire.failovers

(* LINK ADD / LINK DEL: the service-layer face of Route_table.patch.
   A patched daemon must agree with a freshly built one, no link id
   moves under the survivors' circuits, and scripted daemons accept
   patches. *)
let test_link_patch () =
  let g = quadrangle ~capacity:5 () in
  let st = State.create g in
  let m = Graph.link_count g in
  let expect_patched what resp =
    match resp with
    | Wire.Patched { recomputed } ->
      Alcotest.(check bool) (what ^ " recompiled something") true
        (recomputed >= 1)
    | r -> Alcotest.failf "%s: %s" what (Wire.print_response r)
  in
  (* typed errors, not exceptions *)
  (match State.link_add st ~src:0 ~dst:0 ~capacity:5 with
  | Wire.Err { code = "bad-argument"; _ } -> ()
  | r -> Alcotest.failf "self loop: %s" (Wire.print_response r));
  (match State.link_add st ~src:0 ~dst:1 ~capacity:5 with
  | Wire.Err { code = "link-exists"; _ } -> ()
  | r -> Alcotest.failf "duplicate: %s" (Wire.print_response r));
  (match State.link_del st ~src:0 ~dst:99 with
  | Wire.Err { code = "no-such-link"; _ } -> ()
  | r -> Alcotest.failf "missing link: %s" (Wire.print_response r));
  (* a bystander call on another pair, and a victim on 0 -> 1 *)
  let bystander =
    match State.setup st ~src:2 ~dst:3 ~time:None with
    | Wire.Admitted { id; _ } -> id
    | r -> Alcotest.failf "bystander setup: %s" (Wire.print_response r)
  in
  (match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted { path; _ } ->
    Alcotest.(check (list int)) "direct primary" [ 0; 1 ] path
  | r -> Alcotest.failf "victim setup: %s" (Wire.print_response r));
  expect_patched "del 0->1" (State.link_del st ~src:0 ~dst:1);
  Alcotest.(check int) "the removed link keeps its id" m
    (Graph.link_count (State.graph st));
  Alcotest.(check int) "call on the dead link dropped" 1
    (State.stats st).Wire.dropped;
  (* the patched table is exactly what a full rebuild would produce *)
  Alcotest.(check bool) "patch = rebuild after del" true
    (Route_table.equal (State.routes st)
       (Route_table.build ~h:(Route_table.h (State.routes st))
          (State.graph st)));
  (* 0 -> 1 now rides a two-hop primary; no failover is counted because
     the table itself changed, nothing failed *)
  (match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted { id; path } ->
    Alcotest.(check int) "two hops now" 3 (List.length path);
    ignore (State.teardown st ~id : Wire.response)
  | r -> Alcotest.failf "setup after del: %s" (Wire.print_response r));
  Alcotest.(check int) "no failover" 0 (State.stats st).Wire.failovers;
  (* the bystander's circuits kept their ids: its teardown must
     release cleanly (release asserts occupancy > 0) *)
  (match State.teardown st ~id:bystander with
  | Wire.Done -> ()
  | r -> Alcotest.failf "bystander teardown: %s" (Wire.print_response r));
  Alcotest.(check (list int)) "occupancy fully drained" []
    (Array.to_list (State.occupancy st)
    |> List.filteri (fun _ o -> o <> 0));
  (* restore the arc; the direct route comes back *)
  expect_patched "add 0->1" (State.link_add st ~src:0 ~dst:1 ~capacity:5);
  Alcotest.(check int) "link count restored" m
    (Graph.link_count (State.graph st));
  Alcotest.(check bool) "patch = rebuild after add" true
    (Route_table.equal (State.routes st)
       (Route_table.build ~h:(Route_table.h (State.routes st))
          (State.graph st)));
  (match State.setup st ~src:0 ~dst:1 ~time:None with
  | Wire.Admitted { path; _ } ->
    Alcotest.(check (list int)) "direct again" [ 0; 1 ] path
  | r -> Alcotest.failf "setup after add: %s" (Wire.print_response r));
  (* a daemon driving a failure script accepts patches: script events
     address links by id, and patches move no id *)
  let module S = Arnet_sim.Script in
  let scripted =
    State.create
      ~failure_script:
        (S.of_events [ { S.time = 5.; link = 0; action = S.Fail } ])
      (quadrangle ())
  in
  expect_patched "scripted del" (State.link_del scripted ~src:0 ~dst:1)

(* degenerate topologies through the daemon's link verbs: every line
   gets a typed reply, every PATCHED table equals a rebuild of the
   patched graph, and tearing down what is left empties every link *)
let test_link_verbs_degenerate () =
  let link id src dst = Link.make ~id ~src ~dst ~capacity:2 in
  let fixtures =
    [ ("single node", Graph.create ~nodes:1 []);
      ("single edge", Graph.create ~nodes:2 [ link 0 0 1 ]);
      ("bidirectional edge", Graph.of_edges ~nodes:2 ~capacity:2 [ (0, 1) ]);
      ("double hop", Graph.create ~nodes:3 [ link 0 0 1; link 1 1 2 ]);
      ( "double bidirectional hop",
        Graph.of_edges ~nodes:3 ~capacity:2 [ (0, 1); (1, 2) ] );
      ("two nodes, no link", Graph.create ~nodes:2 []) ]
  in
  let script =
    [ "SETUP 0 1 1"; "SETUP 1 0 1.5"; "SETUP 0 2 2"; "RELOAD";
      "LINK DEL 0 1"; "SETUP 0 1 3"; "LINK ADD 0 1 0"; "SETUP 0 1 4";
      "LINK DEL 0 1"; "LINK ADD 0 1 5"; "SETUP 0 1 5"; "SETUP 0 2 5.5";
      "FAIL 0"; "SETUP 0 1 6"; "REPAIR 0"; "LINK ADD 2 0 5";
      "LINK DEL 1 2"; "SETUP 2 1 7"; "RELOAD"; "STATS" ]
  in
  List.iter
    (fun (name, g) ->
      let n = Graph.node_count g in
      List.iter
        (fun matrix ->
          let label =
            Printf.sprintf "%s, %s" name
              (if matrix = None then "no matrix" else "matrix")
          in
          let st = State.create ?matrix g in
          let ids = ref [] in
          let send line =
            match Session.handle_line st line with
            | r, _ -> r
            | exception e ->
              Alcotest.failf "%s: %S raised %s" label line
                (Printexc.to_string e)
          in
          List.iter
            (fun line ->
              match send line with
              | Wire.Admitted { id; _ } -> ids := id :: !ids
              | Wire.Patched _ ->
                let routes = State.routes st in
                if
                  not
                    (Route_table.equal routes
                       (Route_table.build ~h:(Route_table.h routes)
                          (State.graph st)))
                then
                  Alcotest.failf "%s: %S: patched table <> rebuild" label line
              | _ -> ())
            script;
          List.iter
            (fun id -> ignore (send (Printf.sprintf "TEARDOWN %d" id)))
            !ids;
          Alcotest.(check (list int)) (label ^ ": all links idle")
            (List.init (Graph.link_count (State.graph st)) (fun _ -> 0))
            (Array.to_list (State.occupancy st));
          ignore (send "DRAIN");
          Alcotest.(check bool) (label ^ ": drained") true (State.drained st))
        (if n >= 2 then
           [ None; Some (Matrix.uniform ~nodes:n ~demand:1.5) ]
         else [ None ]))
    fixtures

(* A reference model of the daemon's calls.  Random command streams go
   through Session.handle_line; the model holds the live calls as node
   paths and resolves every link by its endpoints in the daemon's
   current graph, never by id, so it reads the same whatever ids a
   patch leaves.  Each SETUP is decided again from the route table's
   primary and alternates (as node paths) under the admission rule in
   force before the command; after every command each link's occupancy
   must equal the model calls crossing it and fit its capacity, and a
   call that a FAIL or LINK DEL dropped must be unknown to TEARDOWN. *)

type model_case = {
  nodes : int;
  edges : (int * int * int) list;  (** a, b, the capacity both ways *)
  demand : float option;  (** the uniform planning matrix, if any *)
  ops : (int * int * int * int) list;  (** a verb draw, then three more *)
}

let model_case_gen =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let all =
      List.concat_map
        (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1)))
        (List.init n Fun.id)
    in
    let spanning = List.init (n - 1) (fun i -> (i, i + 1)) in
    let* extra = list_size (int_bound (List.length all)) (oneofl all) in
    let pairs = List.sort_uniq compare (spanning @ extra) in
    let* caps = list_repeat (List.length pairs) (int_range 1 3) in
    let* demand = opt (oneofl [ 0.5; 1.; 2.; 3. ]) in
    let* ops =
      list_size (int_range 20 60)
        (quad (int_bound 99) (int_bound 999) (int_bound 999) (int_bound 999))
    in
    return
      { nodes = n;
        edges = List.map2 (fun (a, b) c -> (a, b, c)) pairs caps;
        demand;
        ops })

let print_model_case c =
  Printf.sprintf "%d nodes, edges [%s], demand %s, ops [%s]" c.nodes
    (String.concat "; "
       (List.map (fun (a, b, cap) -> Printf.sprintf "%d-%d:%d" a b cap) c.edges))
    (match c.demand with None -> "none" | Some d -> string_of_float d)
    (String.concat "; "
       (List.map
          (fun (v, x, y, z) -> Printf.sprintf "(%d,%d,%d,%d)" v x y z)
          c.ops))

let model_graph c =
  Graph.create ~nodes:c.nodes
    (List.concat
       (List.mapi
          (fun i (a, b, capacity) ->
            [ Link.make ~id:(2 * i) ~src:a ~dst:b ~capacity;
              Link.make ~id:((2 * i) + 1) ~src:b ~dst:a ~capacity ])
          c.edges))

let rec hops_of = function a :: (b :: _ as rest) -> (a, b) :: hops_of rest | _ -> []

let run_model_case c =
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let n = c.nodes in
  let matrix =
    Option.map (fun demand -> Matrix.uniform ~nodes:n ~demand) c.demand
  in
  let st = State.create ?matrix (model_graph c) in
  let calls : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let clock = ref 0. in
  let send cmd =
    let line = Wire.print_command cmd in
    match Session.handle_line st line with
    | r, _ -> (line, r)
    | exception e -> fail "%S raised %s" line (Printexc.to_string e)
  in
  let find (a, b) = Graph.find_link (State.graph st) ~src:a ~dst:b in
  (* the admission rule in force now, for one hop: a failed link has
     capacity 0, an alternate must leave the link's reserve free *)
  let hop_admits ~primary hop =
    match find hop with
    | None -> false
    | Some l ->
      let k = l.Link.id in
      if List.mem k (State.failed_links st) then false
      else
        let r = if primary then 0 else (State.reserves st).(k) in
        (State.occupancy st).(k) + 1 <= l.Link.capacity - r
  in
  let path_admits ~primary p = List.for_all (hop_admits ~primary) (hops_of p) in
  let decide ~src ~dst =
    let routes = State.routes st in
    if not (Route_table.has_route routes ~src ~dst) then None
    else
      let primary = Path.nodes (Route_table.primary routes ~src ~dst) in
      if path_admits ~primary:true primary then Some primary
      else
        List.find_opt
          (path_admits ~primary:false)
          (List.map Path.nodes (Route_table.alternates routes ~src ~dst))
  in
  (* calls crossing [hop] leave the model, and the daemon must have
     forgotten each of them *)
  let drop_crossing hop =
    let dead =
      Hashtbl.fold
        (fun id p acc -> if List.mem hop (hops_of p) then id :: acc else acc)
        calls []
    in
    List.iter
      (fun id ->
        Hashtbl.remove calls id;
        match send (Wire.Teardown { id }) with
        | _, Wire.Err { code = "unknown-call"; _ } -> ()
        | line, r ->
          fail "%s: call on a dropped link answered %s" line
            (Wire.print_response r))
      dead
  in
  let check_links after =
    let occ = State.occupancy st in
    Hashtbl.iter
      (fun id p ->
        List.iter
          (fun hop ->
            if find hop = None then
              fail "after %s: call %d holds %d->%d, which has no link" after
                id (fst hop) (snd hop))
          (hops_of p))
      calls;
    Graph.iter_links
      (fun l ->
        let hop = (l.Link.src, l.Link.dst) in
        let crossing =
          Hashtbl.fold
            (fun _ p acc -> if List.mem hop (hops_of p) then acc + 1 else acc)
            calls 0
        in
        let k = l.Link.id in
        if occ.(k) <> crossing || occ.(k) > l.Link.capacity then
          fail "after %s: link %d->%d holds %d of capacity %d, model %d" after
            l.Link.src l.Link.dst occ.(k) l.Link.capacity crossing)
      (State.graph st);
    if State.active_calls st <> Hashtbl.length calls then
      fail "after %s: %d active calls, model %d" after (State.active_calls st)
        (Hashtbl.length calls)
  in
  let unexpected line r = fail "%s answered %s" line (Wire.print_response r) in
  (* a link id the daemon refuses must be out of range or carry nothing *)
  let refusable k =
    k >= Graph.link_count (State.graph st)
    || (Graph.link (State.graph st) k).Link.capacity = 0
  in
  let step (verb, x, y, z) =
    let m = Graph.link_count (State.graph st) in
    let after =
      match verb mod 20 with
      | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 -> (
        let src = x mod n and dst = y mod n in
        let dst = if src = dst then (dst + 1) mod n else dst in
        clock := !clock +. (float_of_int (z mod 8) /. 4.);
        let expected = decide ~src ~dst in
        match send (Wire.Setup { src; dst; time = Some !clock }), expected with
        | (_, Wire.Admitted { id; path }), Some p when path = p ->
          Hashtbl.replace calls id path;
          "SETUP"
        | (_, Wire.Blocked), None -> "SETUP"
        | (line, r), p ->
          fail "%s answered %s, the model %s" line (Wire.print_response r)
            (match p with
            | None -> "blocks"
            | Some p -> String.concat "-" (List.map string_of_int p)))
      | 9 | 10 | 11 | 12 -> (
        let live = List.sort compare (Hashtbl.fold (fun id _ a -> id :: a) calls []) in
        match live with
        | _ :: _ when x mod 4 <> 0 -> (
          let id = List.nth live (y mod List.length live) in
          match send (Wire.Teardown { id }) with
          | _, Wire.Done ->
            Hashtbl.remove calls id;
            "TEARDOWN"
          | line, r -> unexpected line r)
        | _ -> (
          match send (Wire.Teardown { id = 100_000 + y }) with
          | _, Wire.Err { code = "unknown-call"; _ } -> "TEARDOWN"
          | line, r -> unexpected line r))
      | 13 | 14 -> (
        let link = x mod (m + 1) in
        let hop =
          if link < m then
            let l = Graph.link (State.graph st) link in
            Some (l.Link.src, l.Link.dst)
          else None
        in
        match send (Wire.Fail { link }), hop with
        | (_, Wire.Done), Some hop ->
          drop_crossing hop;
          "FAIL"
        | (_, Wire.Err { code = "no-such-link"; _ }), _ when refusable link ->
          "FAIL"
        | (line, r), _ -> unexpected line r)
      | 15 -> (
        let link = x mod (m + 1) in
        match send (Wire.Repair { link }) with
        | _, Wire.Done when link < m -> "REPAIR"
        | _, Wire.Err { code = "no-such-link"; _ } when refusable link ->
          "REPAIR"
        | line, r -> unexpected line r)
      | 16 | 17 -> (
        let src = x mod n and dst = y mod n and capacity = z mod 4 in
        let existing = find (src, dst) in
        match send (Wire.Link_add { src; dst; capacity }) with
        | _, Wire.Patched _
          when src <> dst
               && (match existing with
                  | None -> true
                  | Some l -> l.Link.capacity = 0) ->
          "LINK ADD"
        | _, Wire.Err { code = "link-exists"; _ } when existing <> None ->
          "LINK ADD"
        | _, Wire.Err { code = "bad-argument"; _ } when src = dst -> "LINK ADD"
        | line, r -> unexpected line r)
      | 18 -> (
        let src, dst =
          if y mod 2 = 0 && m > 0 then
            let l = Graph.link (State.graph st) (x mod m) in
            (l.Link.src, l.Link.dst)
          else (x mod n, z mod n)
        in
        let existing = find (src, dst) in
        match send (Wire.Link_del { src; dst }) with
        | _, Wire.Patched _ when existing <> None ->
          drop_crossing (src, dst);
          "LINK DEL"
        | _, Wire.Err { code = "no-such-link"; _ }
          when (match existing with
               | None -> true
               | Some l -> l.Link.capacity = 0) ->
          "LINK DEL"
        | line, r -> unexpected line r)
      | _ -> (
        match send Wire.Reload with
        | _, Wire.Reloaded _ -> "RELOAD"
        | line, r -> unexpected line r)
    in
    check_links after
  in
  List.iter step c.ops;
  Hashtbl.iter
    (fun id _ ->
      match send (Wire.Teardown { id }) with
      | _, Wire.Done -> ()
      | line, r -> unexpected line r)
    calls;
  Hashtbl.reset calls;
  check_links "the closing teardowns";
  Array.for_all (( = ) 0) (State.occupancy st)

let prop_daemon_model =
  QCheck2.Test.make ~count:300 ~print:print_model_case
    ~name:"random commands keep the daemon's invariants (<=6-node meshes)"
    model_case_gen run_model_case

let test_failure_script_follows_clock () =
  let module S = Arnet_sim.Script in
  let g = quadrangle ~capacity:5 () in
  let link = (Graph.find_link_exn g ~src:0 ~dst:1).Link.id in
  let script =
    S.of_events
      [ { S.time = 5.; link; action = S.Fail };
        { S.time = 8.; link; action = S.Repair } ]
  in
  let st = State.create ~failure_script:script g in
  let path_at t =
    match State.setup st ~src:0 ~dst:1 ~time:(Some t) with
    | Wire.Admitted { id; path } ->
      ignore (State.teardown st ~id : Wire.response);
      path
    | r -> Alcotest.failf "setup at %g: %s" t (Wire.print_response r)
  in
  Alcotest.(check (list int)) "before the cut: primary" [ 0; 1 ] (path_at 4.);
  Alcotest.(check (list int)) "no event fired yet" []
    (State.failed_links st);
  Alcotest.(check (list int)) "during the cut: alternate dodges it" [ 0; 2; 1 ]
    (path_at 6.);
  Alcotest.(check (list int)) "cut visible in stats" [ link ]
    (State.failed_links st);
  Alcotest.(check int) "counted as a failover" 1
    (State.stats st).Wire.failovers;
  Alcotest.(check (list int)) "after the scripted repair: primary again"
    [ 0; 1 ] (path_at 9.);
  Alcotest.(check (list int)) "repaired" [] (State.failed_links st);
  (* a script mentioning a link outside the graph is refused up front *)
  let bad =
    S.of_events
      [ { S.time = 1.; link = Graph.link_count g; action = S.Fail } ]
  in
  match State.create ~failure_script:bad g with
  | _ -> Alcotest.fail "out-of-graph script should raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* online reconfiguration: reload tracks a drifting load *)

let test_reload_tracks_load_step () =
  (* unprotected start; a deterministic arrival stream on one pair at
     rate lambda1, then a step down to lambda2.  After enough windows
     the estimate converges and RELOAD must set the primary link's
     protection to Protection.level at the *new* demand. *)
  let g = quadrangle ~capacity:24 () in
  let st = State.create ~window:5. ~smoothing:0.5 g in
  let h = Route_table.h (State.routes st) in
  let link =
    (Route_table.primary (State.routes st) ~src:0 ~dst:1).Path.link_ids.(0)
  in
  let drive ~from ~until ~rate =
    let dt = 1. /. rate in
    let t = ref from in
    while !t < until do
      (match State.setup st ~src:0 ~dst:1 ~time:(Some !t) with
      | Wire.Admitted { id; _ } ->
        (* tear straight down: we are feeding the estimator, not
           filling the link *)
        ignore (State.teardown st ~id : Wire.response)
      | Wire.Blocked -> ()
      | r -> Alcotest.failf "setup: %s" (Wire.print_response r));
      t := !t +. dt
    done
  in
  let lambda1 = 30. and lambda2 = 18. in
  drive ~from:0. ~until:100. ~rate:lambda1;
  (match State.reload st with
  | Wire.Reloaded { changed } ->
    Alcotest.(check bool) "first reload changes the hot link" true
      (changed >= 1)
  | r -> Alcotest.failf "reload: %s" (Wire.print_response r));
  let r1 = (State.reserves st).(link) in
  Alcotest.(check int) "level at lambda1"
    (Protection.level ~offered:lambda1 ~capacity:24 ~h)
    r1;
  drive ~from:100. ~until:300. ~rate:lambda2;
  ignore (State.reload st : Wire.response);
  let r2 = (State.reserves st).(link) in
  Alcotest.(check int) "level follows the step to lambda2"
    (Protection.level ~offered:lambda2 ~capacity:24 ~h)
    r2;
  Alcotest.(check bool) "the step actually moved the level" true (r1 <> r2);
  (* unexercised links saw no set-ups: still unprotected *)
  Array.iteri
    (fun k r -> if k <> link then Alcotest.(check int) "idle link" 0 r)
    (State.reserves st);
  Alcotest.(check int) "reloads counted" 2 (State.stats st).Wire.reloads

let test_reload_every_cadence () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let st = State.create ~matrix ~reload_every:10 g in
  for i = 0 to 24 do
    match State.setup st ~src:(i mod 3) ~dst:3 ~time:(Some (float_of_int i)) with
    | Wire.Admitted _ | Wire.Blocked -> ()
    | r -> Alcotest.failf "setup: %s" (Wire.print_response r)
  done;
  (* 25 decisions at a 10-decision cadence: reloads at 10 and 20 *)
  Alcotest.(check int) "automatic reloads" 2 (State.stats st).Wire.reloads

(* a link added live with capacity 0 counts as removed from the start:
   no path crosses it, and RELOAD must leave it unprotected rather than
   raise out of Protection.level *)
let test_reload_zero_capacity_link () =
  let _, matrix = Arnet_experiments.Internet.nominal () in
  let st = State.create ~matrix (Nsfnet.graph ()) in
  let send line = fst (Session.handle_line st line) in
  let expect what ok r =
    if not (ok r) then Alcotest.failf "%s: %s" what (Wire.print_response r)
  in
  expect "link add" (function Wire.Patched _ -> true | _ -> false)
    (send "LINK ADD 2 0 0");
  for i = 0 to 39 do
    let t = 1. +. (0.5 *. float_of_int i) in
    match send (Printf.sprintf "SETUP 2 0 %g" t) with
    | Wire.Admitted { id; _ } ->
      expect "teardown" (( = ) Wire.Done)
        (send (Printf.sprintf "TEARDOWN %d" id))
    | r -> expect "setup" (( = ) Wire.Blocked) r
  done;
  expect "reload" (function Wire.Reloaded _ -> true | _ -> false)
    (send "RELOAD");
  expect "stats" (function Wire.Stats_reply _ -> true | _ -> false)
    (send "STATS")

(* ------------------------------------------------------------------ *)
(* snapshots *)

let test_snapshot_roundtrip () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let st = State.create ~matrix g in
  let trace =
    Trace.generate ~rng:(Rng.create ~seed:3) ~duration:30. matrix
  in
  ignore (replay st trace : int * int);
  ignore (State.fail st ~link:2 : Wire.response);
  (* a removed link is written as a capacity-0 link and parses back *)
  ignore (State.link_del st ~src:0 ~dst:1 : Wire.response);
  let snap = State.snapshot st in
  Alcotest.(check bool) "snapshot round-trips" true
    (Arnet_serial.Snapshot.roundtrip_ok snap);
  let back =
    Arnet_serial.Snapshot.of_string (Arnet_serial.Snapshot.to_string snap)
  in
  Alcotest.(check bool) "equal after reparse" true
    (Arnet_serial.Snapshot.equal snap back);
  Alcotest.(check (option int)) "the removed link, at capacity 0" (Some 0)
    (Option.map
       (fun l -> l.Link.capacity)
       (Graph.find_link back.Arnet_serial.Snapshot.graph ~src:0 ~dst:1))

let test_snapshot_parse_error () =
  let snap = State.snapshot (State.create (quadrangle ())) in
  let text = Arnet_serial.Snapshot.to_string snap ^ "occupancy 0 1 nope\n" in
  match Arnet_serial.Snapshot.of_string text with
  | _ -> Alcotest.fail "bad occupancy line should raise"
  | exception Arnet_serial.Snapshot.Parse_error (_, msg) ->
    Alcotest.(check bool) "message mentions the directive" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* end to end over a real socket *)

let socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "arnet-test-%d-%d.sock" (Unix.getpid ()) !counter)

let serve_and_load ?snapshot ?failure_script ~seed ~calls ~matrix g =
  let addr = Server.Unix_sock (socket_path ()) in
  let st = State.create ~matrix ?failure_script g in
  let server =
    Thread.create (fun () -> Server.serve ?snapshot ~state:st addr) ()
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (try
           let ic, oc = Server.connect ~retry_for:5. addr in
           ignore (Server.request ic oc Wire.Drain : Wire.response);
           close_out_noerr oc;
           ignore (ic : in_channel)
         with _ -> ());
        Thread.join server)
      (fun () -> Loadgen.run ~retry_for:5. ~seed ~calls ~matrix ~addr ())
  in
  (st, result)

let test_socket_determinism () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let go () = serve_and_load ~seed:42 ~calls:2000 ~matrix g in
  let st1, r1 = go () in
  let st2, r2 = go () in
  Alcotest.(check int) "all calls sent" 2000 r1.Loadgen.calls;
  Alcotest.(check int) "no wire errors" 0 r1.Loadgen.errors;
  Alcotest.(check bool) "some accepted" true (r1.Loadgen.accepted > 0);
  Alcotest.(check bool) "some blocked" true (r1.Loadgen.blocked > 0);
  Alcotest.(check int) "accepted reproduce" r1.Loadgen.accepted
    r2.Loadgen.accepted;
  Alcotest.(check int) "blocked reproduce" r1.Loadgen.blocked
    r2.Loadgen.blocked;
  (* the daemon saw what the client counted, and drained clean *)
  List.iter
    (fun st ->
      let s = State.stats st in
      Alcotest.(check int) "daemon accepted" r1.Loadgen.accepted
        s.Wire.accepted;
      Alcotest.(check int) "every call torn down" s.Wire.accepted
        s.Wire.torn_down;
      Alcotest.(check bool) "drained" true (State.drained st))
    [ st1; st2 ]

let test_socket_drain_snapshot () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let path = Filename.temp_file "arnet-drain" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let st, result =
        serve_and_load ~snapshot:path ~seed:5 ~calls:500 ~matrix g
      in
      let snap = Arnet_serial.Snapshot.of_file path in
      Alcotest.(check bool) "drained state is empty" true
        (Array.for_all (fun o -> o = 0) snap.Arnet_serial.Snapshot.occupancy);
      Alcotest.(check (option int)) "accepted counter persisted"
        (Some result.Loadgen.accepted)
        (List.assoc_opt "accepted" snap.Arnet_serial.Snapshot.counters);
      Alcotest.(check int) "daemon agreed" result.Loadgen.accepted
        (State.stats st).Wire.accepted)

let test_socket_concurrent_connections () =
  (* throughput mode: counts still conserved, daemon still drains *)
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let addr = Server.Unix_sock (socket_path ()) in
  let st = State.create ~matrix g in
  let server = Thread.create (fun () -> Server.serve ~state:st addr) () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (try
           let ic, oc = Server.connect ~retry_for:5. addr in
           ignore (Server.request ic oc Wire.Drain : Wire.response);
           close_out_noerr oc;
           ignore (ic : in_channel)
         with _ -> ());
        Thread.join server)
      (fun () ->
        Loadgen.run ~connections:4 ~retry_for:5. ~seed:11 ~calls:1000
          ~matrix ~addr ())
  in
  Alcotest.(check int) "all calls sent" 1000 result.Loadgen.calls;
  Alcotest.(check int) "accept + block = calls" 1000
    (result.Loadgen.accepted + result.Loadgen.blocked);
  Alcotest.(check int) "no wire errors" 0 result.Loadgen.errors;
  Alcotest.(check bool) "drained" true (State.drained st)

(* drive a trace over the socket in engine order, recording every
   response verbatim: the transcript *is* the run, so two identical
   transcripts mean decision-for-decision determinism *)
let drive_transcript addr (trace : Trace.t) =
  let ic, oc = Server.connect ~retry_for:5. addr in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      ignore (ic : in_channel))
    (fun () ->
      let departures = Event_queue.create () in
      let log = Buffer.create 4096 in
      let request cmd =
        let r = Server.request ic oc cmd in
        Buffer.add_string log (Wire.print_response r);
        Buffer.add_char log '\n';
        r
      in
      Array.iteri
        (fun i time ->
          Event_queue.pop_until departures ~time
            ~f:(fun _ id -> ignore (request (Wire.Teardown { id })));
          match
            request
              (Wire.Setup
                 { src = trace.Trace.srcs.(i);
                   dst = trace.Trace.dsts.(i);
                   time = Some time })
          with
          | Wire.Admitted { id; _ } ->
            Event_queue.push_at departures ~times:trace.Trace.ends i id
          | _ -> ())
        trace.Trace.times;
      let rec flush () =
        match Event_queue.pop departures with
        | Some (_, id) ->
          ignore (request (Wire.Teardown { id }));
          flush ()
        | None -> ()
      in
      flush ();
      Buffer.contents log)

let test_socket_failure_storm () =
  let module S = Arnet_sim.Script in
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  (* 2000 arrivals at aggregate rate 180/tu span ~11 tu of virtual
     time; the storm cuts three directed links mid-load and repairs
     every one before the tail of the run *)
  let id src dst = (Graph.find_link_exn g ~src ~dst).Link.id in
  let ev time link action = { S.time; link; action } in
  let script =
    S.of_events
      [ ev 2. (id 0 1) S.Fail;
        ev 3. (id 1 2) S.Fail;
        ev 5. (id 0 1) S.Repair;
        ev 5.5 (id 2 3) S.Fail;
        ev 7. (id 1 2) S.Repair;
        ev 8. (id 2 3) S.Repair ]
  in
  let trace =
    Trace.generate ~rng:(Rng.create ~seed:42) ~duration:11. matrix
  in
  let go () =
    let addr = Server.Unix_sock (socket_path ()) in
    let st = State.create ~matrix ~failure_script:script g in
    let server = Thread.create (fun () -> Server.serve ~state:st addr) () in
    let transcript =
      Fun.protect
        ~finally:(fun () ->
          (try
             let ic, oc = Server.connect ~retry_for:5. addr in
             ignore (Server.request ic oc Wire.Drain : Wire.response);
             close_out_noerr oc;
             ignore (ic : in_channel)
           with _ -> ());
          Thread.join server)
        (fun () -> drive_transcript addr trace)
    in
    (st, transcript)
  in
  let st1, t1 = go () in
  let st2, t2 = go () in
  Alcotest.(check string)
    "identical accept/block/ERR transcript across fresh daemons" t1 t2;
  let s1 = State.stats st1 and s2 = State.stats st2 in
  Alcotest.(check bool) "the storm dropped in-flight calls" true
    (s1.Wire.dropped > 0);
  Alcotest.(check bool) "and forced failovers" true (s1.Wire.failovers > 0);
  Alcotest.(check int) "drops reproduce" s1.Wire.dropped s2.Wire.dropped;
  Alcotest.(check int) "failovers reproduce" s1.Wire.failovers
    s2.Wire.failovers;
  (* each dropped call surfaces as exactly one ERR unknown-call when its
     teardown arrives *)
  let count_err t =
    List.length
      (List.filter
         (fun line ->
           match Wire.parse_response line with
           | Ok (Wire.Err { code = "unknown-call"; _ }) -> true
           | _ -> false)
         (String.split_on_char '\n' t))
  in
  Alcotest.(check int) "ERR per dropped call" s1.Wire.dropped (count_err t1);
  List.iter
    (fun st ->
      Alcotest.(check (list int)) "all cuts repaired" []
        (State.failed_links st);
      Alcotest.(check bool) "clean drain" true (State.drained st))
    [ st1; st2 ]

let test_socket_line_cap () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let addr = Server.Unix_sock (socket_path ()) in
  let st = State.create ~matrix g in
  let server = Thread.create (fun () -> Server.serve ~state:st addr) () in
  Fun.protect
    ~finally:(fun () ->
      (try
         let ic, oc = Server.connect ~retry_for:5. addr in
         ignore (Server.request ic oc Wire.Drain : Wire.response);
         close_out_noerr oc;
         ignore (ic : in_channel)
       with _ -> ());
      Thread.join server)
    (fun () ->
      let oversized = String.make (Server.max_line_bytes + 1) 'a' in
      let expect_toolong_and_close ~terminated ic oc =
        output_string oc oversized;
        if terminated then output_char oc '\n';
        flush oc;
        let reply = input_line ic in
        Alcotest.(check bool)
          (Printf.sprintf "ERR toolong reply (terminated=%b)" terminated)
          true
          (match Wire.parse_response reply with
          | Ok (Wire.Err { code = "toolong"; _ }) -> true
          | _ -> false);
        Alcotest.check_raises
          (Printf.sprintf "connection closed (terminated=%b)" terminated)
          End_of_file
          (fun () -> ignore (input_line ic : string));
        close_out_noerr oc
      in
      (* an oversized complete line *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      expect_toolong_and_close ~terminated:true ic oc;
      (* a newline-free flood must not buffer without bound either *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      expect_toolong_and_close ~terminated:false ic oc;
      (* only the offending connections died: the daemon still answers *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      (match Server.request ic oc Wire.Stats with
      | Wire.Stats_reply _ -> ()
      | r -> Alcotest.failf "unexpected reply %s" (Wire.print_response r));
      close_out_noerr oc;
      ignore (ic : in_channel))

(* ------------------------------------------------------------------ *)
(* the telemetry plane: live scrapes over a second listener *)

module J = Arnet_obs.Jsonu

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" what needle hay

(* a one-shot HTTP/1.0 exchange; [raw] sends the bytes verbatim so
   malformed request lines can be exercised *)
let http_get ?(raw = false) addr target =
  let ic, oc = Server.connect ~retry_for:5. addr in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      ignore (ic : in_channel))
    (fun () ->
      output_string oc
        (if raw then target
         else Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target);
      flush oc;
      In_channel.input_all ic)

let http_body resp =
  let marker = "\r\n\r\n" in
  let rec find i =
    if i + 4 > String.length resp then
      Alcotest.failf "no header/body split in %S" resp
    else if String.sub resp i 4 = marker then
      String.sub resp (i + 4) (String.length resp - i - 4)
    else find (i + 1)
  in
  find 0

let drain_and_join addr server =
  (try
     let ic, oc = Server.connect ~retry_for:5. addr in
     ignore (Server.request ic oc Wire.Drain : Wire.response);
     close_out_noerr oc;
     ignore (ic : in_channel)
   with _ -> ());
  Thread.join server

let test_telemetry_endpoints () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let addr = Server.Unix_sock (socket_path ()) in
  let tel = Server.Unix_sock (socket_path ()) in
  (* threshold 0: every command lands in the slow log *)
  let metrics = Service_metrics.create ~slow_threshold:0. () in
  let st =
    State.create ~matrix ~observer:(Service_metrics.observer metrics) g
  in
  let server =
    Thread.create
      (fun () -> Server.serve ~metrics ~telemetry:tel ~state:st addr)
      ()
  in
  Fun.protect
    ~finally:(fun () -> drain_and_join addr server)
    (fun () ->
      (* drive some traffic so every series has a value; each call is
         torn down at once so the daemon can drain even if an
         assertion below fails *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      for _ = 1 to 50 do
        match
          Server.request ic oc (Wire.Setup { src = 0; dst = 2; time = None })
        with
        | Wire.Admitted { id; _ } ->
          (match Server.request ic oc (Wire.Teardown { id }) with
          | Wire.Done -> ()
          | r -> Alcotest.failf "teardown: %s" (Wire.print_response r))
        | Wire.Blocked -> ()
        | r -> Alcotest.failf "unexpected reply %s" (Wire.print_response r)
      done;
      close_out_noerr oc;
      ignore (ic : in_channel);
      let resp = http_get tel "/metrics" in
      check_contains "status line" resp "HTTP/1.0 200 OK";
      check_contains "exposition content type" resp
        "Content-Type: text/plain; version=0.0.4; charset=utf-8";
      check_contains "connection close" resp "Connection: close";
      check_contains "type lines" resp "# TYPE";
      check_contains "latency histogram" resp
        "arn_command_latency_seconds_bucket";
      check_contains "latency verb label" resp {|verb="setup"|};
      check_contains "command counters" resp "arn_service_commands_total";
      check_contains "occupancy series" resp "arnet_link_occupancy";
      check_contains "capacity series" resp "arnet_link_capacity";
      check_contains "reserve series" resp "arnet_link_reserve";
      check_contains "pair counters" resp "arnet_pair_accepted_total";
      check_contains "uptime" resp "arn_process_uptime_seconds";
      check_contains "gc series" resp "arn_process_gc_minor_words";
      check_contains "live heap" resp "arn_process_live_words";
      (* health + stats endpoints *)
      let resp = http_get tel "/healthz" in
      check_contains "healthz" resp "HTTP/1.0 200 OK";
      Alcotest.(check string) "healthz body" "ok\n" (http_body resp);
      let resp = http_get tel "/statz" in
      check_contains "statz" resp "HTTP/1.0 200 OK";
      check_contains "statz is json" resp "Content-Type: application/json";
      let doc = J.parse (http_body resp) in
      Alcotest.(check int) "statz accepted+blocked" 50
        (J.as_int (J.member_exn "accepted" doc)
        + J.as_int (J.member_exn "blocked" doc));
      Alcotest.(check bool) "slow log populated" true
        (J.as_list (J.member_exn "slow_commands" doc) <> []);
      (* unknown path and wrong method *)
      check_contains "404" (http_get tel "/nope") "HTTP/1.0 404";
      check_contains "405"
        (http_get ~raw:true tel "POST /metrics HTTP/1.0\r\n\r\n")
        "HTTP/1.0 405";
      (* a malformed request line answers 400 and must not take the
         select loop down with it *)
      check_contains "400" (http_get ~raw:true tel "gibberish\r\n")
        "HTTP/1.0 400";
      check_contains "400 on binary garbage"
        (http_get ~raw:true tel "\x16\x03\x01\x02\x00\r\n")
        "HTTP/1.0 400";
      check_contains "scrapes survive bad requests" (http_get tel "/healthz")
        "HTTP/1.0 200 OK";
      let ic, oc = Server.connect ~retry_for:5. addr in
      (match Server.request ic oc Wire.Stats with
      | Wire.Stats_reply s ->
        Alcotest.(check int) "commands survive bad requests" 50
          (s.Wire.accepted + s.Wire.blocked)
      | r -> Alcotest.failf "unexpected reply %s" (Wire.print_response r));
      close_out_noerr oc;
      ignore (ic : in_channel))

let test_telemetry_scrape_determinism () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let go ~scrape () =
    let addr = Server.Unix_sock (socket_path ()) in
    let tel = Server.Unix_sock (socket_path ()) in
    let metrics = Service_metrics.create () in
    let st =
      State.create ~matrix ~observer:(Service_metrics.observer metrics) g
    in
    let server =
      Thread.create
        (fun () -> Server.serve ~metrics ~telemetry:tel ~state:st addr)
        ()
    in
    let stop = Atomic.make false in
    let scrapes = ref 0 in
    let scraper =
      if not scrape then None
      else
        Some
          (Thread.create
             (fun () ->
               while not (Atomic.get stop) do
                 (try
                    let resp = http_get tel "/metrics" in
                    if contains resp "HTTP/1.0 200 OK" then incr scrapes
                  with _ -> ());
                 Thread.yield ()
               done)
             ())
    in
    let result =
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Option.iter Thread.join scraper;
          drain_and_join addr server)
        (fun () ->
          Loadgen.run ~retry_for:5. ~seed:7 ~calls:800 ~matrix ~addr ())
    in
    (!scrapes, result)
  in
  let _, plain = go ~scrape:false () in
  let scrapes, scraped = go ~scrape:true () in
  Alcotest.(check bool) "the scraper actually ran" true (scrapes > 0);
  Alcotest.(check int) "accepted unchanged by live scraping"
    plain.Loadgen.accepted scraped.Loadgen.accepted;
  Alcotest.(check int) "blocked unchanged by live scraping"
    plain.Loadgen.blocked scraped.Loadgen.blocked;
  Alcotest.(check int) "no wire errors" 0 scraped.Loadgen.errors

(* the sample value of [series] (name and labels) in exposition [text] *)
let scraped_value text series =
  let prefix = series ^ " " in
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' text)
  with
  | Some line ->
    float_of_string
      (String.sub line (String.length prefix)
         (String.length line - String.length prefix))
  | None -> Alcotest.failf "%s not exported" series

(* the series that mirror State are set per scrape: after cadence
   reloads, a failover around a FAILed link and calls left in flight, a
   scrape reads exactly what State.stats and State.occupancy say *)
let test_scrape_mirrors_state () =
  let g = quadrangle ~capacity:5 () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:3. in
  let metrics = Service_metrics.create () in
  let st =
    State.create ~matrix ~reload_every:4
      ~observer:(Service_metrics.observer metrics) g
  in
  let handle cmd = Service_metrics.record metrics cmd (Session.handle st cmd) in
  let setup src dst time =
    handle (Wire.Setup { src; dst; time = Some time })
  in
  List.iteri (fun i (src, dst) -> setup src dst (float_of_int i))
    [ (2, 3); (3, 2); (1, 2); (0, 3); (2, 0); (0, 1) ];
  handle (Wire.Fail { link = (Graph.find_link_exn g ~src:0 ~dst:1).Link.id });
  setup 0 1 7.;
  setup 0 1 8.;
  let s = State.stats st in
  Alcotest.(check bool) "cadence reloads happened" true (s.Wire.reloads >= 2);
  Alcotest.(check bool) "a setup failed over" true (s.Wire.failovers >= 1);
  Alcotest.(check bool) "calls in flight" true (s.Wire.active >= 1);
  let text = Service_metrics.scrape metrics st in
  let value = scraped_value text in
  let check what expected name =
    Alcotest.(check (float 0.)) what (float_of_int expected) (value name)
  in
  check "reloads" s.Wire.reloads "arn_service_reloads_total";
  check "failovers" s.Wire.failovers "arnet_failover_total";
  check "active calls" s.Wire.active "arn_service_active_calls";
  check "occupancy"
    (Array.fold_left ( + ) 0 (State.occupancy st))
    "arn_service_occupancy_circuits";
  check "failed links" (List.length s.Wire.failed) "arn_service_failed_links";
  (* the daemon knows no holding time, so it observes none *)
  check "holding times observed" 0 "arnet_call_holding_time_count"

(* LINK DEL under calls in flight: their teardowns must not leave
   per-link series behind.  A scrape reads every link's occupancy as
   State holds it, the deleted link's gauges read 0 under its own id,
   and the rate gauges are live *)
let test_scrape_link_gauges_follow_state () =
  let metrics = Service_metrics.create () in
  let st =
    State.create ~observer:(Service_metrics.observer metrics)
      (quadrangle ~capacity:5 ())
  in
  let handle cmd =
    let resp = Session.handle st cmd in
    Service_metrics.record metrics cmd resp;
    resp
  in
  (* on links 10 (2->3) and 11 (3->2), which the deletion of link 0
     leaves where they are *)
  let ids =
    List.map
      (fun (src, dst) ->
        match handle (Wire.Setup { src; dst; time = None }) with
        | Wire.Admitted { id; _ } -> id
        | r -> Alcotest.failf "setup: %s" (Wire.print_response r))
      [ (2, 3); (3, 2); (2, 3) ]
  in
  (* a scrape of the 12-link network exports every link's gauges *)
  ignore (Service_metrics.scrape metrics st : string);
  (match handle (Wire.Link_del { src = 0; dst = 1 }) with
  | Wire.Patched _ -> ()
  | r -> Alcotest.failf "link del: %s" (Wire.print_response r));
  List.iter
    (fun id ->
      match handle (Wire.Teardown { id }) with
      | Wire.Done -> ()
      | r -> Alcotest.failf "teardown: %s" (Wire.print_response r))
    ids;
  let occupancy = State.occupancy st in
  Alcotest.(check int) "every id kept" 12 (Array.length occupancy);
  let text = Service_metrics.scrape metrics st in
  let value = scraped_value text in
  for k = 0 to 11 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "link %d occupancy" k)
      (float_of_int occupancy.(k))
      (value (Printf.sprintf "arnet_link_occupancy{link=\"%d\"}" k))
  done;
  List.iter
    (fun family ->
      Alcotest.(check (float 0.))
        (family ^ " of the deleted id") 0.
        (value (Printf.sprintf "%s{link=\"0\"}" family)))
    [ "arnet_link_capacity"; "arnet_link_reserve"; "arnet_link_failed";
      "arnet_link_occupancy" ];
  Alcotest.(check bool) "wall seconds refreshed" true
    (value "arnet_wall_seconds" > 0.);
  Alcotest.(check bool) "event rate refreshed" true
    (value "arnet_events_per_second" > 0.)

(* a 4-node full mesh whose 12 links have distinct capacities, so that a
   capacity gauge names its link *)
let distinct_mesh () =
  let pairs =
    List.concat_map
      (fun s -> List.filter_map (fun d -> if s = d then None else Some (s, d))
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  Graph.create ~nodes:4
    (List.mapi
       (fun id (src, dst) -> Link.make ~id ~src ~dst ~capacity:(3 + id))
       pairs)

let endpoints g = Array.map (fun l -> (l.Link.src, l.Link.dst)) (Graph.links g)

(* LINK DEL removes one link and renames none: every surviving id names
   the endpoints it named before in the graph, in FAIL, in STATS and on
   /metrics; the removed id reads 0 on every per-link gauge, and adding
   its pair back revives it *)
let test_link_ids_survive_del () =
  let g = distinct_mesh () in
  let before = endpoints g in
  let metrics = Service_metrics.create () in
  let st = State.create ~observer:(Service_metrics.observer metrics) g in
  let send cmd =
    let resp = Session.handle st cmd in
    Service_metrics.record metrics cmd resp;
    resp
  in
  let setup_all () =
    Array.to_list before
    |> List.filter_map (fun (src, dst) ->
           match send (Wire.Setup { src; dst; time = None }) with
           | Wire.Admitted { id; path } -> Some (id, path)
           | r -> Alcotest.failf "setup: %s" (Wire.print_response r))
  in
  let teardown_all calls =
    List.iter
      (fun (id, _) ->
        match send (Wire.Teardown { id }) with
        | Wire.Done -> ()
        | r -> Alcotest.failf "teardown %d: %s" id (Wire.print_response r))
      calls
  in
  let direct = setup_all () in
  (match send (Wire.Link_del { src = 0; dst = 1 }) with
  | Wire.Patched _ -> ()
  | r -> Alcotest.failf "link del: %s" (Wire.print_response r));
  teardown_all (List.filter (fun (_, path) -> path <> [ 0; 1 ]) direct);
  Alcotest.(check int) "no id removed" 12 (Graph.link_count (State.graph st));
  for k = 1 to 11 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "link %d keeps its endpoints" k)
      before.(k)
      (endpoints (State.graph st)).(k)
  done;
  let crosses hop path = List.mem hop (hops_of path) in
  (* FAIL k drops exactly the calls across k's endpoints, 0 -> 1's two
     hops among them; STATS lists k *)
  for k = 1 to 11 do
    let calls = setup_all () in
    if k = 1 then begin
      let value = scraped_value (Service_metrics.scrape metrics st) in
      for j = 1 to 11 do
        Alcotest.(check (float 0.))
          (Printf.sprintf "capacity gauge of link %d" j)
          (float_of_int (3 + j))
          (value (Printf.sprintf "arnet_link_capacity{link=\"%d\"}" j))
      done;
      List.iter
        (fun family ->
          Alcotest.(check (float 0.)) (family ^ " of the removed id") 0.
            (value (Printf.sprintf "%s{link=\"0\"}" family)))
        [ "arnet_link_capacity"; "arnet_link_reserve"; "arnet_link_failed";
          "arnet_link_occupancy" ]
    end;
    let victims, survivors =
      List.partition (fun (_, path) -> crosses before.(k) path) calls
    in
    Alcotest.(check bool) (Printf.sprintf "link %d carries calls" k) true
      (victims <> []);
    let dropped = (State.stats st).Wire.dropped in
    (match send (Wire.Fail { link = k }) with
    | Wire.Done -> ()
    | r -> Alcotest.failf "fail %d: %s" k (Wire.print_response r));
    Alcotest.(check int)
      (Printf.sprintf "FAIL %d drops the calls across its endpoints" k)
      (List.length victims)
      ((State.stats st).Wire.dropped - dropped);
    (match send Wire.Stats with
    | Wire.Stats_reply s ->
      Alcotest.(check (list int)) (Printf.sprintf "STATS lists %d" k) [ k ]
        s.Wire.failed
    | r -> Alcotest.failf "stats: %s" (Wire.print_response r));
    List.iter
      (fun (id, _) ->
        match send (Wire.Teardown { id }) with
        | Wire.Err { code = "unknown-call"; _ } -> ()
        | r -> Alcotest.failf "victim %d: %s" id (Wire.print_response r))
      victims;
    teardown_all survivors;
    match send (Wire.Repair { link = k }) with
    | Wire.Done -> ()
    | r -> Alcotest.failf "repair %d: %s" k (Wire.print_response r)
  done;
  (match send (Wire.Link_add { src = 0; dst = 1; capacity = 7 }) with
  | Wire.Patched _ -> ()
  | r -> Alcotest.failf "link add: %s" (Wire.print_response r));
  Alcotest.(check int) "12 links after the add" 12
    (Graph.link_count (State.graph st));
  Alcotest.(check (pair int int)) "the pair is id 0 again" (0, 1)
    (endpoints (State.graph st)).(0);
  Alcotest.(check (float 0.)) "its capacity gauge" 7.
    (scraped_value (Service_metrics.scrape metrics st)
       "arnet_link_capacity{link=\"0\"}")

(* a failure script names links by id, and patches rename none: a
   scripted daemon accepts LINK DEL and LINK ADD, each surviving id's
   FAIL hits the link it named at start-up, and an event on a removed
   link is skipped *)
let test_script_and_patches_coexist () =
  let module S = Arnet_sim.Script in
  let g = distinct_mesh () in
  let before = endpoints g in
  let fail_at k = 10. +. (2. *. float_of_int k) in
  let script =
    S.of_events
      (List.concat
         (List.init 12 (fun link ->
              [ { S.time = fail_at link; link; action = S.Fail };
                { S.time = fail_at link +. 1.; link; action = S.Repair } ])))
  in
  let st = State.create ~failure_script:script g in
  let send line = fst (Session.handle_line st line) in
  let expect_patched line =
    match send line with
    | Wire.Patched _ -> ()
    | r -> Alcotest.failf "%s: %s" line (Wire.print_response r)
  in
  (* remove links 0 (0 -> 1) and 5 (1 -> 3), then bring 5 back *)
  expect_patched "LINK DEL 0 1";
  expect_patched "LINK DEL 1 3";
  expect_patched "LINK ADD 1 3 8";
  Alcotest.(check (pair int int)) "link 5 revived under its id" before.(5)
    (endpoints (State.graph st)).(5);
  for k = 0 to 11 do
    let src, dst = before.(k) in
    (* a call on k's pair, just before its scripted FAIL *)
    let id =
      match send (Printf.sprintf "SETUP %d %d %g" src dst (fail_at k -. 0.5)) with
      | Wire.Admitted { id; _ } -> id
      | r -> Alcotest.failf "setup on link %d: %s" k (Wire.print_response r)
    in
    (* the next set-up moves the clock past the FAIL *)
    ignore (send (Printf.sprintf "SETUP %d %d %g" src dst (fail_at k +. 0.5)));
    if k = 0 then begin
      Alcotest.(check (list int)) "the removed link's FAIL is skipped" []
        (State.failed_links st);
      Alcotest.(check bool) "the call across the other path lives" true
        (send (Printf.sprintf "TEARDOWN %d" id) = Wire.Done)
    end
    else begin
      Alcotest.(check (list int))
        (Printf.sprintf "FAIL %d hits link %d" k k) [ k ]
        (State.failed_links st);
      Alcotest.(check (pair int int))
        (Printf.sprintf "id %d names its start-up endpoints" k) before.(k)
        (endpoints (State.graph st)).(k);
      match send (Printf.sprintf "TEARDOWN %d" id) with
      | Wire.Err { code = "unknown-call"; _ } -> ()
      | r ->
        Alcotest.failf "the call on link %d survived its FAIL: %s" k
          (Wire.print_response r)
    end
  done

(* the slow log keeps the 32 newest commands over the threshold *)
let test_slow_log_keeps_newest () =
  let metrics = Service_metrics.create ~slow_threshold:0. () in
  for i = 1 to 40 do
    let slow =
      Service_metrics.record_latency metrics ~verb:"setup" ~verdict:"ok"
        (float_of_int i)
    in
    Alcotest.(check bool) "over the threshold" true slow
  done;
  Alcotest.(check (list (float 0.))) "32 entries, newest first"
    (List.init 32 (fun i -> float_of_int (40 - i)))
    (List.map
       (fun e -> e.Service_metrics.seconds)
       (Service_metrics.slow_log metrics))

(* The two ways a connection flood used to kill the daemon, against
   the real [arn serve] binary: more connections than select(2) can
   watch, and more than the process has descriptors for.  Raw sockets
   with a receive timeout, so a daemon that never answers fails the
   test instead of hanging it. *)

let arn_exe () =
  (* cwd is test/ under dune runtest, the project root under dune exec *)
  List.find Sys.file_exists [ "../bin/arn.exe"; "_build/default/bin/arn.exe" ]

let raw_connect ?(retry_for = 0.) sock =
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
      fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.01;
      attempt ()
  in
  attempt ()

(* one reply line, or "" at end of stream *)
let raw_read_line fd =
  let b = Buffer.create 64 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> Buffer.contents b
    | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
    | _ ->
      Buffer.add_bytes b c;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.failf "no reply within 5 s (read so far: %S)" (Buffer.contents b)
  in
  go ()

let raw_request fd line =
  let s = Bytes.of_string (line ^ "\n") in
  ignore (Unix.write fd s 0 (Bytes.length s) : int);
  raw_read_line fd

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [arn serve] on the quadrangle under an optional descriptor limit,
   logging to a file; [f] gets the socket path and the log path.  The
   daemon must drain and exit 0 once [f] returns. *)
let with_daemon ?fd_limit f =
  let sock = socket_path () in
  let log = Filename.temp_file "arnet-daemon" ".log" in
  let argv =
    [ arn_exe (); "serve"; "--network"; "quadrangle"; "--listen";
      "unix:" ^ sock; "--log-level"; "warn" ]
  in
  let argv =
    match fd_limit with
    | None -> argv
    | Some n ->
      "/bin/sh" :: "-c" :: Printf.sprintf "ulimit -n %d && exec \"$0\" \"$@\"" n
      :: argv
  in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log_fd)
      (fun () ->
        Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin
          log_fd log_fd)
  in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      (* a daemon found dead mid-test was already reaped *)
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid : int * Unix.process_status)
        with Unix.Unix_error _ -> ()
      end;
      (try Sys.remove sock with Sys_error _ -> ());
      try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ());
      f ~pid ~sock ~log;
      (* the closes above reach the daemon asynchronously: a fresh
         connection may still find it full for a moment *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec stats () =
        let fd = raw_connect sock in
        let reply = raw_request fd "STATS" in
        if starts_with "STATS " reply then fd
        else begin
          Unix.close fd;
          if Unix.gettimeofday () > deadline then
            Alcotest.failf "daemon no longer serves: %S" reply;
          Unix.sleepf 0.02;
          stats ()
        end
      in
      let fd = stats () in
      Alcotest.(check string) "drains" "OK" (raw_request fd "DRAIN");
      Unix.close fd;
      let _, status = Unix.waitpid [] pid in
      reaped := true;
      let text = In_channel.with_open_bin log In_channel.input_all in
      Alcotest.(check bool)
        (Printf.sprintf "clean exit (log: %S)" text)
        true
        (status = Unix.WEXITED 0);
      Alcotest.(check bool) "no listen failure reported" false
        (contains text "cannot listen");
      text)

let test_socket_connection_cap () =
  let text =
    with_daemon (fun ~pid:_ ~sock ~log:_ ->
        let held =
          List.init Server.max_connections (fun i ->
              let fd =
                raw_connect ~retry_for:(if i = 0 then 10. else 0.) sock
              in
              let reply = raw_request fd "STATS" in
              if not (starts_with "STATS " reply) then
                Alcotest.failf "connection %d: %S" i reply;
              fd)
        in
        (* past the cap: one ERR busy line, unprompted, then close *)
        for i = 1 to 8 do
          let fd = raw_connect sock in
          (match Wire.parse_response (raw_read_line fd) with
          | Ok (Wire.Err { code = "busy"; _ }) -> ()
          | Ok r -> Alcotest.failf "refusal %d: %s" i (Wire.print_response r)
          | Error msg -> Alcotest.failf "refusal %d: %s" i msg);
          Alcotest.(check string) "then closed" "" (raw_read_line fd);
          Unix.close fd
        done;
        List.iter Unix.close held)
  in
  check_contains "refusals logged" text "connection limit"

let test_socket_descriptor_exhaustion () =
  let text =
    with_daemon ~fd_limit:48 (fun ~pid ~sock ~log ->
        (* more connections than the daemon has descriptors: the tail
           waits in the listen backlog while accept fails *)
        let first = raw_connect ~retry_for:10. sock in
        let rest = List.init 59 (fun _ -> raw_connect sock) in
        let deadline = Unix.gettimeofday () +. 10. in
        let rec await_emfile () =
          let text = In_channel.with_open_bin log In_channel.input_all in
          if not (contains text "out of file descriptors") then begin
            (match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _ -> Alcotest.failf "daemon exited: %S" text);
            if Unix.gettimeofday () > deadline then
              Alcotest.failf "accept never ran dry: %S" text;
            Unix.sleepf 0.02;
            await_emfile ()
          end
        in
        await_emfile ();
        (* still serving the connections it holds *)
        let reply = raw_request first "STATS" in
        if not (starts_with "STATS " reply) then
          Alcotest.failf "held connection: %S" reply;
        List.iter Unix.close (first :: rest))
  in
  check_contains "accept failure logged" text "out of file descriptors"

(* ------------------------------------------------------------------ *)
(* the serve loop's total order and the binary framing *)

(* The serve loop must be the pre-sharding daemon byte-for-byte: this
   session was recorded against the single-threaded daemon before
   domain sharding was added (and later removed) and frozen as
   service_transcript_d1.golden.  The drive below is the recorder,
   verbatim — raw lines (including the malformed ones) so whitespace
   tolerance and error text are pinned too. *)
let transcript_fixed_lines =
  [ "SETUP 0 1"; "SETUP 0 1 0.25"; "setup 0 1 0.5"; "  SETUP  0   1  0.75  ";
    "SETUP 0 1 1.0"; "SETUP 0 1 1.25"; "SETUP 0 1 1.5"; "SETUP 1 3 1.75";
    "SETUP 2 0 2.0"; "SETUP 0 9"; "SETUP x 1"; "SETUP 0 1 -1";
    "SETUP 0 1 0x2"; "TEARDOWN 1"; "TEARDOWN 1"; "TEARDOWN zz"; "STATS";
    "FAIL 0"; "SETUP 0 1 2.5"; "REPAIR 0"; "RELOAD"; "LINK DEL 0 1";
    "LINK ADD 0 1 3"; "LINK ADD 0 1 3"; "LINK DEL 9 9"; "FAIL 99";
    "HELLOBAD"; ""; "STATS" ]

let test_golden_transcript_d1 () =
  let g = Builders.full_mesh ~nodes:4 ~capacity:3 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let st = State.create ~matrix g in
  let addr = Server.Unix_sock (socket_path ()) in
  let server = Thread.create (fun () -> Server.serve ~state:st addr) () in
  let transcript =
    Fun.protect
      ~finally:(fun () -> drain_and_join addr server)
      (fun () ->
        let ic, oc = Server.connect ~retry_for:5. addr in
        Fun.protect
          ~finally:(fun () ->
            close_out_noerr oc;
            ignore (ic : in_channel))
          (fun () ->
            let log = Buffer.create 4096 in
            let live = ref [] in
            let exchange line =
              Buffer.add_string log ("> " ^ line ^ "\n");
              output_string oc (line ^ "\n");
              flush oc;
              let reply = input_line ic in
              Buffer.add_string log ("< " ^ reply ^ "\n");
              (* track live calls: admitted ids in, OK-teardown ids out
                 (a call dropped by FAIL stays tracked — its teardown
                 answers ERR unknown-call, and the golden pins that) *)
              match Wire.parse_response reply with
              | Ok (Wire.Admitted { id; _ }) -> live := id :: !live
              | Ok Wire.Done -> (
                match Wire.parse_command line with
                | Ok (Wire.Teardown { id }) ->
                  live := List.filter (fun i -> i <> id) !live
                | _ -> ())
              | _ -> ()
            in
            List.iter exchange transcript_fixed_lines;
            exchange "DRAIN";
            exchange "SETUP 0 1 9.9";
            List.iter
              (fun id -> exchange (Printf.sprintf "TEARDOWN %d" id))
              (List.sort compare !live);
            Buffer.contents log))
  in
  let golden =
    (* cwd is test/ under dune runtest, the project root under
       dune exec *)
    let name = "service_transcript_d1.golden" in
    let path =
      if Sys.file_exists name then name else Filename.concat "test" name
    in
    In_channel.with_open_bin path In_channel.input_all
  in
  Alcotest.(check string) "pre-sharding transcript, byte for byte" golden
    transcript;
  Alcotest.(check bool) "drained" true (State.drained st)

(* the daemon's one ordering guarantee: decisions are a total order.
   Whatever interleaving the concurrent connections produce, replaying
   the tap-recorded merged order through a fresh state must reproduce
   every response — ids, paths, errors — and the aggregate counters. *)
let test_merged_order () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let st = State.create ~matrix g in
  let addr = Server.Unix_sock (socket_path ()) in
  let taped = ref [] in
  let tap cmd resp = taped := (cmd, resp) :: !taped in
  let server = Thread.create (fun () -> Server.serve ~tap ~state:st addr) () in
  let anomalies = Atomic.make 0 in
  Fun.protect
    ~finally:(fun () -> drain_and_join addr server)
    (fun () ->
      let worker k =
        Thread.create
          (fun () ->
            let ic, oc = Server.connect ~retry_for:5. addr in
            Fun.protect
              ~finally:(fun () ->
                close_out_noerr oc;
                ignore (ic : in_channel))
              (fun () ->
                for i = 0 to 59 do
                  let src = (k + i) mod 4 in
                  let dst = (src + 1 + (i mod 3)) mod 4 in
                  match
                    Server.request ic oc (Wire.Setup { src; dst; time = None })
                  with
                  | Wire.Admitted { id; _ } -> (
                    match Server.request ic oc (Wire.Teardown { id }) with
                    | Wire.Done -> ()
                    | _ -> Atomic.incr anomalies)
                  | Wire.Blocked -> ()
                  | _ -> Atomic.incr anomalies
                done;
                (* sprinkle control traffic into the merged order *)
                match Server.request ic oc Wire.Stats with
                | Wire.Stats_reply _ -> ()
                | _ -> Atomic.incr anomalies))
          ()
      in
      List.iter Thread.join (List.init 6 worker));
  Alcotest.(check int) "no anomalous replies" 0 (Atomic.get anomalies);
  Alcotest.(check bool) "drained" true (State.drained st);
  let order = List.rev !taped in
  Alcotest.(check bool) "tap saw the run" true (List.length order > 360);
  let st2 = State.create ~matrix (quadrangle ()) in
  List.iteri
    (fun i (cmd, resp) ->
      let replayed = Session.handle st2 cmd in
      if not (Wire.equal_response resp replayed) then
        Alcotest.failf "decision %d: daemon said %s, replay says %s" i
          (Wire.print_response resp)
          (Wire.print_response replayed))
    order;
  let s = State.stats st and s2 = State.stats st2 in
  Alcotest.(check int) "accepted reproduce" s.Wire.accepted s2.Wire.accepted;
  Alcotest.(check int) "blocked reproduce" s.Wire.blocked s2.Wire.blocked;
  Alcotest.(check int) "torn down reproduce" s.Wire.torn_down
    s2.Wire.torn_down

(* HELLO negotiation and hand-rolled frames over a live socket *)
let read_frame ic =
  let head = really_input_string ic 4 in
  let n = Int32.to_int (String.get_int32_be head 0) in
  let payload = really_input_string ic n in
  match Bwire.decode (head ^ payload) with
  | Ok (frame, _) -> frame
  | Error e -> Alcotest.failf "reply frame: %s" (Bwire.error_to_string e)

let expect_eof what ic =
  Alcotest.check_raises what End_of_file (fun () ->
      ignore (input_char ic : char))

(* a pipelining client: 300 SETUP lines (every third CRLF-terminated),
   HELLO binary and one frame in a single write, more than one read
   of the daemon's; every line is answered in order, as a fresh State
   decides the same commands, and the bytes behind HELLO binary reach
   the frame decoder *)
let test_socket_one_write_pipeline () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let st = State.create ~matrix g in
  let addr = Server.Unix_sock (socket_path ()) in
  let server = Thread.create (fun () -> Server.serve ~state:st addr) () in
  Fun.protect
    ~finally:(fun () -> drain_and_join addr server)
    (fun () ->
      let setups =
        List.init 300 (fun i ->
            let src = i mod 4 in
            Wire.Setup
              { src;
                dst = (src + 1 + (i / 4 mod 3)) mod 4;
                time = Some (float_of_int i *. 0.01) })
      in
      let frame = [ Wire.Setup { src = 0; dst = 3; time = None }; Wire.Stats ] in
      let payload =
        String.concat ""
          (List.mapi
             (fun i cmd ->
               Wire.print_command cmd ^ if i mod 3 = 0 then "\r\n" else "\n")
             setups)
        ^ Wire.print_command (Wire.Hello { mode = "binary" })
        ^ "\n"
        ^ Bwire.encode_commands frame
      in
      Alcotest.(check bool) "longer than one 4096-byte read" true
        (String.length payload > 4096);
      let ic, oc = Server.connect ~retry_for:5. addr in
      Alcotest.(check int) "one write" (String.length payload)
        (Unix.write_substring (Unix.descr_of_out_channel oc) payload 0
           (String.length payload));
      let replay = State.create ~matrix g in
      let expected = List.map (Session.handle replay) setups in
      Alcotest.(check bool) "some lines blocked" true
        (List.mem Wire.Blocked expected);
      List.iteri
        (fun i expected ->
          let line = input_line ic in
          match Wire.parse_response line with
          | Ok r when Wire.equal_response r expected -> ()
          | _ ->
            Alcotest.failf "line %d: got %S, expected %S" i line
              (Wire.print_response expected))
        expected;
      Alcotest.(check string) "HELLO binary answered on its line" "OK"
        (input_line ic);
      let expected_frame = List.map (Session.handle replay) frame in
      (match read_frame ic with
      | Bwire.Replies rs when List.equal Wire.equal_response rs expected_frame
        ->
        ()
      | Bwire.Replies rs ->
        Alcotest.failf "frame replies: %s"
          (String.concat "; " (List.map Wire.print_response rs))
      | Bwire.Commands _ -> Alcotest.fail "commands frame from the server");
      (* tear every call down, so that the daemon can drain *)
      let ids =
        List.filter_map
          (function Wire.Admitted { id; _ } -> Some id | _ -> None)
          (expected @ expected_frame)
      in
      output_string oc
        (Bwire.encode_commands (List.map (fun id -> Wire.Teardown { id }) ids));
      flush oc;
      (match read_frame ic with
      | Bwire.Replies rs when List.for_all (( = ) Wire.Done) rs -> ()
      | _ -> Alcotest.fail "teardown frame");
      close_out_noerr oc)

let test_binary_upgrade () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let st = State.create ~matrix g in
  let addr = Server.Unix_sock (socket_path ()) in
  let server = Thread.create (fun () -> Server.serve ~state:st addr) () in
  Fun.protect
    ~finally:(fun () -> drain_and_join addr server)
    (fun () ->
      (* HELLO line is a no-op; an unknown mode is a typed ERR and the
         connection stays in line framing *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      (match Server.request ic oc (Wire.Hello { mode = "line" }) with
      | Wire.Done -> ()
      | r -> Alcotest.failf "HELLO line: %s" (Wire.print_response r));
      (match Server.request ic oc (Wire.Hello { mode = "morse" }) with
      | Wire.Err { code = "bad-argument"; _ } -> ()
      | r -> Alcotest.failf "HELLO morse: %s" (Wire.print_response r));
      (match Server.request ic oc Wire.Stats with
      | Wire.Stats_reply _ -> ()
      | r -> Alcotest.failf "still line framed: %s" (Wire.print_response r));
      close_out_noerr oc;
      (* upgrade, then one frame of mixed commands: one reply frame
         back, verdicts in order *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      (match Server.request ic oc (Wire.Hello { mode = "binary" }) with
      | Wire.Done -> ()
      | r -> Alcotest.failf "HELLO binary: %s" (Wire.print_response r));
      output_string oc
        (Bwire.encode_commands
           [ Wire.Setup { src = 0; dst = 1; time = None };
             Wire.Setup { src = 0; dst = 2; time = None };
             Wire.Teardown { id = 999_999 };
             Wire.Stats ]);
      flush oc;
      let ids =
        match read_frame ic with
        | Bwire.Replies
            [ Wire.Admitted { id = a; _ };
              Wire.Admitted { id = b; _ };
              Wire.Err { code = "unknown-call"; _ };
              Wire.Stats_reply s ] ->
          Alcotest.(check int) "stats through the frame" 2 s.Wire.accepted;
          [ a; b ]
        | Bwire.Replies rs ->
          Alcotest.failf "unexpected verdicts: %s"
            (String.concat "; " (List.map Wire.print_response rs))
        | Bwire.Commands _ -> Alcotest.fail "commands frame from the server"
      in
      (* a QUIT inside a batch: the frame is answered whole, then the
         connection closes *)
      output_string oc
        (Bwire.encode_commands
           (List.map (fun id -> Wire.Teardown { id }) ids @ [ Wire.Quit ]));
      flush oc;
      (match read_frame ic with
      | Bwire.Replies [ Wire.Done; Wire.Done; Wire.Done ] -> ()
      | _ -> Alcotest.fail "teardown+quit batch");
      expect_eof "closed after QUIT" ic;
      close_out_noerr oc;
      (* a reply frame from a client is connection-fatal: one ERR
         bad-frame reply frame, then close *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      ignore
        (Server.request ic oc (Wire.Hello { mode = "binary" })
          : Wire.response);
      output_string oc (Bwire.encode_replies [ Wire.Blocked ]);
      flush oc;
      (match read_frame ic with
      | Bwire.Replies [ Wire.Err { code = "bad-frame"; _ } ] -> ()
      | _ -> Alcotest.fail "reply frame should be refused");
      expect_eof "closed after bad frame" ic;
      close_out_noerr oc;
      (* an oversized length word likewise *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      ignore
        (Server.request ic oc (Wire.Hello { mode = "binary" })
          : Wire.response);
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 (Int32.of_int (Bwire.max_frame_payload + 1));
      output_string oc (Bytes.to_string b);
      flush oc;
      (match read_frame ic with
      | Bwire.Replies [ Wire.Err { code = "bad-frame"; _ } ] -> ()
      | _ -> Alcotest.fail "oversized frame should be refused");
      expect_eof "closed after oversized frame" ic;
      close_out_noerr oc;
      (* only the offending connections died *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      (match Server.request ic oc Wire.Stats with
      | Wire.Stats_reply _ -> ()
      | r -> Alcotest.failf "daemon gone: %s" (Wire.print_response r));
      close_out_noerr oc;
      ignore (ic : in_channel))

let test_binary_batch_loadgen () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let addr = Server.Unix_sock (socket_path ()) in
  let st = State.create ~matrix g in
  let server = Thread.create (fun () -> Server.serve ~state:st addr) () in
  let result =
    Fun.protect
      ~finally:(fun () -> drain_and_join addr server)
      (fun () ->
        Loadgen.run ~connections:2 ~retry_for:5. ~seed:11 ~calls:600 ~matrix
          ~addr ~binary:true ~batch:16 ())
  in
  Alcotest.(check int) "all calls sent" 600 result.Loadgen.calls;
  Alcotest.(check int) "accept + block = calls" 600
    (result.Loadgen.accepted + result.Loadgen.blocked);
  Alcotest.(check int) "no wire errors" 0 result.Loadgen.errors;
  Alcotest.(check bool) "a full batch was in flight" true
    (result.Loadgen.in_flight_max >= 16);
  Alcotest.(check bool) "never more than both pipelines" true
    (result.Loadgen.in_flight_max <= 32);
  Alcotest.(check bool) "drained" true (State.drained st)

(* line mode and binary frames of one command walk one trace: a fresh
   daemon decides the same (command, response) sequence either way *)
let test_loadgen_transports_agree () =
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let decisions ?binary ?batch seed =
    let st = State.create ~matrix (quadrangle ()) in
    let addr = Server.Unix_sock (socket_path ()) in
    let taped = ref [] in
    (* HELLO, QUIT and the final DRAIN are transport, not the walk *)
    let tap cmd resp =
      match cmd with
      | Wire.Setup _ | Wire.Teardown _ ->
        taped :=
          (Wire.print_command cmd ^ " -> " ^ Wire.print_response resp)
          :: !taped
      | _ -> ()
    in
    let server =
      Thread.create (fun () -> Server.serve ~tap ~state:st addr) ()
    in
    Fun.protect
      ~finally:(fun () -> drain_and_join addr server)
      (fun () ->
        ignore
          (Loadgen.run ?binary ?batch ~retry_for:5. ~seed ~calls:600 ~matrix
             ~addr ()
            : Loadgen.result));
    List.rev !taped
  in
  List.iter
    (fun seed ->
      let line = decisions seed in
      Alcotest.(check bool) "the tap saw the walk" true
        (List.length line > 600);
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: line = binary batch 1" seed)
        line
        (decisions ~binary:true ~batch:1 seed))
    [ 42; 7 ]

let test_batch_metrics_scrape () =
  let g = quadrangle () in
  let matrix = Matrix.uniform ~nodes:4 ~demand:15. in
  let addr = Server.Unix_sock (socket_path ()) in
  let tel = Server.Unix_sock (socket_path ()) in
  let metrics = Service_metrics.create () in
  let st =
    State.create ~matrix ~observer:(Service_metrics.observer metrics) g
  in
  let server =
    Thread.create
      (fun () -> Server.serve ~metrics ~telemetry:tel ~state:st addr)
      ()
  in
  Fun.protect
    ~finally:(fun () -> drain_and_join addr server)
    (fun () ->
      ignore
        (Loadgen.run ~connections:2 ~retry_for:5. ~seed:3 ~calls:400 ~matrix
           ~addr ~binary:true ~batch:8 ()
          : Loadgen.result);
      (* a control command bumps the epoch the scrape reports *)
      let ic, oc = Server.connect ~retry_for:5. addr in
      (match Server.request ic oc Wire.Reload with
      | Wire.Reloaded _ -> ()
      | r -> Alcotest.failf "reload: %s" (Wire.print_response r));
      close_out_noerr oc;
      ignore (ic : in_channel);
      let resp = http_get tel "/metrics" in
      check_contains "scrape alive" resp "HTTP/1.0 200 OK";
      check_contains "batch histogram" resp "arnet_batch_size_bucket";
      check_contains "full batches observed" resp
        {|arnet_batch_size_bucket{le="8.0"}|};
      Alcotest.(check bool) "no per-domain series from the single loop"
        false (contains resp "arnet_domain_requests_total");
      check_contains "epoch gauge" resp "arnet_service_epoch 1.0")

(* ------------------------------------------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "service"
    [ ( "wire",
        [ qcheck prop_command_roundtrip;
          qcheck prop_response_roundtrip;
          qcheck prop_parse_command_total;
          Alcotest.test_case "malformed commands" `Quick
            test_malformed_commands;
          Alcotest.test_case "malformed responses" `Quick
            test_malformed_responses ] );
      ( "bwire",
        [ qcheck prop_bwire_commands_roundtrip;
          qcheck prop_bwire_replies_roundtrip;
          Alcotest.test_case "malformed frames" `Quick test_bwire_malformed ] );
      ( "protocol",
        [ Alcotest.test_case "session errors" `Quick test_session_errors ] );
      ( "decisions",
        [ Alcotest.test_case "matches the batch simulator" `Quick
            test_matches_batch_simulator;
          Alcotest.test_case "frozen NSFNet failure golden" `Quick
            test_daemon_golden;
          Alcotest.test_case "equals the engine under failures" `Quick
            test_daemon_equals_engine_under_failures;
          Alcotest.test_case "failure rerouting" `Quick
            test_failure_rerouting;
          Alcotest.test_case "all paths dead blocks" `Quick
            test_all_paths_dead_blocks;
          Alcotest.test_case "fail/repair edge cases" `Quick
            test_fail_repair_edge_cases;
          Alcotest.test_case "link add/del patches routes" `Quick
            test_link_patch;
          Alcotest.test_case "link verbs on degenerate topologies" `Quick
            test_link_verbs_degenerate;
          Alcotest.test_case "failure script follows the clock" `Quick
            test_failure_script_follows_clock;
          qcheck prop_daemon_model;
          Alcotest.test_case "link ids survive LINK DEL" `Quick
            test_link_ids_survive_del;
          Alcotest.test_case "failure scripts and patches coexist" `Quick
            test_script_and_patches_coexist ] );
      ( "reload",
        [ Alcotest.test_case "tracks a load step" `Quick
            test_reload_tracks_load_step;
          Alcotest.test_case "reload-every cadence" `Quick
            test_reload_every_cadence;
          Alcotest.test_case "zero-capacity link added live" `Quick
            test_reload_zero_capacity_link ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "parse error" `Quick test_snapshot_parse_error ] );
      ( "socket",
        [ Alcotest.test_case "determinism across fresh daemons" `Slow
            test_socket_determinism;
          Alcotest.test_case "drain writes the snapshot" `Slow
            test_socket_drain_snapshot;
          Alcotest.test_case "concurrent connections" `Slow
            test_socket_concurrent_connections;
          Alcotest.test_case "failure storm is deterministic" `Slow
            test_socket_failure_storm;
          Alcotest.test_case "oversized lines are rejected" `Quick
            test_socket_line_cap;
          Alcotest.test_case "one write of lines, HELLO binary and a frame"
            `Quick test_socket_one_write_pipeline;
          Alcotest.test_case "connections past the cap are refused" `Slow
            test_socket_connection_cap;
          Alcotest.test_case "accept survives descriptor exhaustion" `Slow
            test_socket_descriptor_exhaustion ] );
      ( "telemetry",
        [ Alcotest.test_case "live endpoints" `Quick test_telemetry_endpoints;
          Alcotest.test_case "scraping does not perturb admission" `Slow
            test_telemetry_scrape_determinism;
          Alcotest.test_case "scrape mirrors State" `Quick
            test_scrape_mirrors_state;
          Alcotest.test_case "per-link gauges follow State" `Quick
            test_scrape_link_gauges_follow_state;
          Alcotest.test_case "slow log keeps the newest 32" `Quick
            test_slow_log_keeps_newest ] );
      ( "transport",
        [ Alcotest.test_case "frozen single-loop transcript" `Slow
            test_golden_transcript_d1;
          Alcotest.test_case "merged order replays decision for decision"
            `Slow test_merged_order;
          Alcotest.test_case "HELLO binary upgrade and raw frames" `Slow
            test_binary_upgrade;
          Alcotest.test_case "batched binary load conserves counts" `Slow
            test_binary_batch_loadgen;
          Alcotest.test_case "line and binary transports decide alike" `Slow
            test_loadgen_transports_agree;
          Alcotest.test_case "batch series scrape" `Slow
            test_batch_metrics_scrape ] ) ]
