open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_sim

let check_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let feq_at tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let seq r = List.init 20 (fun _ -> Rng.uniform r) in
  Alcotest.(check (list (float 0.))) "same seed same stream" (seq a) (seq b);
  let c = Rng.create ~seed:8 in
  Alcotest.(check bool) "different seed differs" true (seq a <> seq c)

let test_rng_substreams () =
  let master = Rng.create ~seed:3 in
  let s1 = Rng.substream master "trace" in
  let s2 = Rng.substream master "trace" in
  let s3 = Rng.substream master "routing" in
  let seq r = List.init 10 (fun _ -> Rng.uniform r) in
  Alcotest.(check (list (float 0.))) "same name same stream" (seq s1) (seq s2);
  Alcotest.(check bool) "different name differs" true (seq s1 <> seq s3)

let test_rng_exponential () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential r ~rate:4. in
    Alcotest.(check bool) "positive" true (x > 0.);
    total := !total +. x
  done;
  feq_at 0.01 "mean 1/rate" 0.25 (!total /. float_of_int n);
  check_invalid "bad rate" (fun () -> ignore (Rng.exponential r ~rate:0.))

(* [bits53] is the draw behind [float], so the inline forms the trace
   generator uses reproduce [float], [uniform] and [exponential] bit for
   bit *)
let test_rng_bits53 () =
  let a = Rng.create ~seed:13 and b = Rng.create ~seed:13 in
  let unit () = float_of_int (Rng.bits53 b) *. 0x1.p-53 in
  for _ = 1 to 1000 do
    feq_at 0. "float" (Rng.float a 7.5) (unit () *. 7.5);
    feq_at 0. "uniform" (Rng.uniform a) (unit ());
    feq_at 0. "exponential"
      (Rng.exponential a ~rate:3.)
      (-.log (1. -. unit ()) /. 3.)
  done

let test_rng_poisson () =
  let r = Rng.create ~seed:12 in
  let n = 5_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.poisson r ~mean:3.
  done;
  feq_at 0.15 "poisson mean" 3. (float_of_int !total /. float_of_int n);
  check_invalid "mean too large" (fun () -> ignore (Rng.poisson r ~mean:1000.))

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let test_event_queue_ordering () =
  let q = Event_queue.create () in
  List.iter
    (fun t -> Event_queue.push q ~time:t (int_of_float (10. *. t)))
    [ 3.; 1.; 2.; 0.5; 2.5 ];
  Alcotest.(check int) "length" 5 (Event_queue.length q);
  Alcotest.(check (option (float 0.))) "peek" (Some 0.5)
    (Event_queue.peek_time q);
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (t, _) ->
      popped := t :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.))) "sorted"
    [ 0.5; 1.; 2.; 2.5; 3. ]
    (List.rev !popped);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_event_queue_pop_until () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.push q ~time:t ()) [ 1.; 2.; 3.; 4. ];
  let count = ref 0 in
  Event_queue.pop_until q ~time:2.5 ~f:(fun _ () -> incr count);
  Alcotest.(check int) "popped two" 2 !count;
  Alcotest.(check int) "two remain" 2 (Event_queue.length q);
  Event_queue.clear q;
  Alcotest.(check int) "cleared" 0 (Event_queue.length q);
  check_invalid "non-finite time" (fun () ->
      Event_queue.push q ~time:Float.nan ())

let prop_event_queue_sorts =
  QCheck2.Test.make ~count:100 ~name:"event queue pops in sorted order"
    QCheck2.Gen.(list_size (int_range 0 50) (float_range 0. 100.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t t) times;
      let rec drain acc =
        match Event_queue.pop q with
        | Some (t, _) -> drain (t :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare times)

(* interleaved push/pop against a multiset model.  Times are drawn from
   a 10-value range so duplicate timestamps are common; ties carry no
   ordering guarantee between payloads, so the model only demands that
   each pop returns the minimum outstanding time and a payload that was
   pushed with exactly that time and not yet popped. *)
let prop_event_queue_model =
  QCheck2.Test.make ~count:300
    ~name:"interleaved push/pop agrees with sorted-multiset model"
    QCheck2.Gen.(
      list_size (int_range 0 80)
        (oneof
           [ map (fun t -> Some (float_of_int t)) (int_range 0 9);
             pure None ]))
    (fun ops ->
      let q = Event_queue.create () in
      let outstanding = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      let remove_first pair l =
        let rec go acc = function
          | [] -> ok := false; List.rev acc
          | x :: rest ->
            if x = pair then List.rev_append acc rest else go (x :: acc) rest
        in
        go [] l
      in
      let take () =
        match Event_queue.pop q with
        | None -> if !outstanding <> [] then ok := false
        | Some (t, i) ->
          let min_t =
            List.fold_left (fun m (u, _) -> Float.min m u) infinity !outstanding
          in
          if t <> min_t then ok := false;
          outstanding := remove_first (t, i) !outstanding
      in
      List.iter
        (function
          | Some t ->
            let i = !next_id in
            incr next_id;
            Event_queue.push q ~time:t i;
            outstanding := (t, i) :: !outstanding
          | None -> take ())
        ops;
      while not (Event_queue.is_empty q) do
        take ()
      done;
      !ok && !outstanding = [])

(* Reference for the pop order, ties included: a plain binary heap that
   swaps time and payload at every sift level, with the same
   comparisons (strict [<], the left child on a tie). *)
module Swap_heap = struct
  type 'a t = {
    mutable times : float array;
    mutable data : 'a option array;
    mutable size : int;
  }

  let create () = { times = [||]; data = [||]; size = 0 }

  let swap h i j =
    let t = h.times.(i) and d = h.data.(i) in
    h.times.(i) <- h.times.(j);
    h.data.(i) <- h.data.(j);
    h.times.(j) <- t;
    h.data.(j) <- d

  let rec sift_up h i =
    let parent = (i - 1) / 2 in
    if i > 0 && h.times.(i) < h.times.(parent) then begin
      swap h i parent;
      sift_up h parent
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = if l < h.size && h.times.(l) < h.times.(i) then l else i in
    let s = if r < h.size && h.times.(r) < h.times.(s) then r else s in
    if s <> i then begin
      swap h i s;
      sift_down h s
    end

  let push h time x =
    if h.size = Array.length h.times then begin
      h.times <- Array.append h.times (Array.make (h.size + 1) 0.);
      h.data <- Array.append h.data (Array.make (h.size + 1) None)
    end;
    h.times.(h.size) <- time;
    h.data.(h.size) <- Some x;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    let t = h.times.(0) and x = Option.get h.data.(0) in
    h.size <- h.size - 1;
    swap h 0 h.size;
    sift_down h 0;
    (t, x)
end

type eq_op = Push of int | Push_at of int | Pop | Pop_until of int | Clear

(* Every mix of the entry points, with times from 8 values so ties are
   everywhere, pops exactly the swap heap's (time, payload) sequence. *)
let prop_event_queue_swap_heap_order =
  QCheck2.Test.make ~count:500
    ~name:"pop order, ties included, equals the swap heap's"
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (frequency
           [ (4, map (fun t -> Push t) (int_range 0 7));
             (4, map (fun t -> Push_at t) (int_range 0 7));
             (5, pure Pop);
             (1, map (fun t -> Pop_until t) (int_range 0 7));
             (1, pure Clear) ]))
    (fun ops ->
      let q = Event_queue.create () and r = Swap_heap.create () in
      let got = ref [] and want = ref [] and id = ref 0 in
      let push_both time push =
        incr id;
        push !id;
        Swap_heap.push r time !id
      in
      let pop_ref () = want := Swap_heap.pop r :: !want in
      List.iter
        (function
          | Push t ->
            let time = float_of_int t in
            push_both time (Event_queue.push q ~time)
          | Push_at t ->
            let times = [| float_of_int t |] in
            push_both times.(0) (Event_queue.push_at q ~times 0)
          | Pop ->
            if not (Event_queue.is_empty q) then begin
              let time = Option.get (Event_queue.peek_time q) in
              got := (time, Event_queue.pop_payload q) :: !got
            end;
            if r.Swap_heap.size > 0 then pop_ref ()
          | Pop_until t ->
            let time = float_of_int t in
            Event_queue.pop_until q ~time ~f:(fun t x -> got := (t, x) :: !got);
            while r.Swap_heap.size > 0 && r.Swap_heap.times.(0) <= time do
              pop_ref ()
            done
          | Clear ->
            Event_queue.clear q;
            r.Swap_heap.size <- 0)
        ops;
      while not (Event_queue.is_empty q) do
        got := Option.get (Event_queue.pop q) :: !got
      done;
      while r.Swap_heap.size > 0 do
        pop_ref ()
      done;
      !got = !want)

let test_event_queue_pop_until_boundary () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.push q ~time:t t) [ 1.; 2.; 2.; 3. ];
  let popped = ref [] in
  Event_queue.pop_until q ~time:2. ~f:(fun t _ -> popped := t :: !popped);
  (* [pop_until ~time] is inclusive: both events at exactly t = time go *)
  Alcotest.(check (list (float 0.)))
    "events at exactly t = time are popped" [ 1.; 2.; 2. ]
    (List.rev !popped);
  Alcotest.(check int) "later event remains" 1 (Event_queue.length q);
  Alcotest.(check (option (float 0.))) "head is the later event" (Some 3.)
    (Event_queue.peek_time q)

let test_event_queue_indexed_api () =
  let q = Event_queue.create () in
  let times = [| 3.; 1.; 2. |] in
  Event_queue.push_at q ~times 0 "c";
  Event_queue.push_at q ~times 1 "a";
  Event_queue.push_at q ~times 2 "b";
  Alcotest.(check (option (float 0.))) "peek" (Some 1.)
    (Event_queue.peek_time q);
  let deadlines = [| 0.5; 1.; 2.5 |] in
  Alcotest.(check bool) "not due before head" false
    (Event_queue.next_due q ~deadlines 0);
  Alcotest.(check bool) "due at exactly the deadline" true
    (Event_queue.next_due q ~deadlines 1);
  Alcotest.(check string) "payloads pop in time order" "a"
    (Event_queue.pop_payload q);
  Alcotest.(check bool) "due below deadline" true
    (Event_queue.next_due q ~deadlines 2);
  Alcotest.(check string) "second payload" "b" (Event_queue.pop_payload q);
  Alcotest.(check bool) "head beyond deadline" false
    (Event_queue.next_due q ~deadlines 2);
  Alcotest.(check string) "last payload" "c" (Event_queue.pop_payload q);
  Alcotest.(check bool) "empty queue never due" false
    (Event_queue.next_due q ~deadlines 2);
  check_invalid "pop_payload on empty" (fun () ->
      ignore (Event_queue.pop_payload q : string));
  check_invalid "push_at non-finite" (fun () ->
      Event_queue.push_at q ~times:[| Float.nan |] 0 "x")

(* the space-leak fix: popped and cleared payloads must become
   unreachable.  Observed through a weak array; the pops happen inside a
   never-inlined helper so no stack slot keeps the payload alive. *)
let[@inline never] pop_and_discard q =
  match Event_queue.pop q with Some _ -> () | None -> ()

let[@inline never] pop_id q = (Event_queue.pop_payload q).(0)

let test_event_queue_payload_release () =
  let q = Event_queue.create () in
  let weak = Weak.create 3 in
  let push i time =
    let payload = Array.make 4 i in
    Weak.set weak i (Some payload);
    Event_queue.push q ~time payload
  in
  push 0 1.;
  push 1 2.;
  push 2 3.;
  pop_and_discard q;
  Gc.full_major ();
  Alcotest.(check bool) "popped payload released" true
    (Weak.get weak 0 = None);
  Alcotest.(check bool) "queued payload retained" true
    (Weak.get weak 1 <> None);
  Alcotest.(check bool) "queued payload retained (tail slot)" true
    (Weak.get weak 2 <> None);
  Event_queue.clear q;
  Gc.full_major ();
  Alcotest.(check bool) "cleared payloads released" true
    (Weak.get weak 1 = None && Weak.get weak 2 = None);
  (* recycled slots: grow past the initial capacity with pops
     interleaved, so pushes reuse the slots pops parked, then clear and
     refill.  Exactly the queued payloads stay reachable throughout. *)
  let n = 120 in
  let weak = Weak.create n and popped = Array.make n false in
  let pushed = ref 0 in
  let check_reachable what =
    Gc.full_major ();
    for i = 0 to !pushed - 1 do
      if Weak.check weak i = popped.(i) then
        Alcotest.failf "%s: payload %d %s" what i
          (if popped.(i) then "still reachable" else "lost")
    done
  in
  let fill ~first ~last =
    for i = first to last do
      let payload = Array.make 4 i in
      Weak.set weak i (Some payload);
      Event_queue.push q ~time:(float_of_int ((i * 37) mod 23)) payload;
      pushed := i + 1;
      if i mod 3 = 2 then popped.(pop_id q) <- true
    done
  in
  fill ~first:0 ~last:59;
  check_reachable "grown";
  Alcotest.(check int) "queued" 40 (Event_queue.length q);
  Event_queue.clear q;
  for i = 0 to 59 do
    popped.(i) <- true
  done;
  check_reachable "cleared";
  fill ~first:60 ~last:(n - 1);
  check_reachable "refilled";
  let last = ref neg_infinity in
  while not (Event_queue.is_empty q) do
    let t = Option.get (Event_queue.peek_time q) in
    Alcotest.(check bool) "refill pops in order" true (t >= !last);
    last := t;
    popped.(pop_id q) <- true
  done;
  check_reachable "drained"

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_generation () =
  let rng = Rng.create ~seed:5 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:10. in
  (* total rate 120; over 50 time units expect ~6000 calls *)
  let trace = Trace.generate ~rng ~duration:50. matrix in
  Alcotest.(check bool) "sorted" true (Trace.check_sorted trace);
  let n = Trace.call_count trace in
  Alcotest.(check bool) "call volume plausible" true (n > 5400 && n < 6600);
  let { Trace.times; srcs; dsts; holdings; us; ends; classes; _ } = trace in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "within duration" true
      (times.(i) >= 0. && times.(i) < 50.);
    Alcotest.(check bool) "endpoints distinct" true (srcs.(i) <> dsts.(i));
    Alcotest.(check bool) "holding positive" true (holdings.(i) > 0.);
    Alcotest.(check bool) "u in range" true (us.(i) >= 0. && us.(i) < 1.);
    Alcotest.(check bool) "deadline" true (ends.(i) = times.(i) +. holdings.(i));
    Alcotest.(check int) "one class" 0 classes.(i)
  done;
  Alcotest.(check (array int)) "bandwidth 1" [| 1 |] trace.Trace.bandwidths

let test_trace_pair_frequencies () =
  let rng = Rng.create ~seed:6 in
  let matrix =
    Matrix.make ~nodes:3 (fun i j ->
        match (i, j) with 0, 1 -> 30. | 1, 2 -> 10. | _ -> 0.)
  in
  let trace = Trace.generate ~rng ~duration:100. matrix in
  let count01 = ref 0 and count12 = ref 0 in
  Array.iteri
    (fun i src ->
      match (src, trace.Trace.dsts.(i)) with
      | 0, 1 -> incr count01
      | 1, 2 -> incr count12
      | _ -> Alcotest.fail "unexpected pair")
    trace.Trace.srcs;
  feq_at 0.3 "3:1 split" 3.
    (float_of_int !count01 /. float_of_int !count12)

let test_trace_holding_mean () =
  let rng = Rng.create ~seed:7 in
  let matrix = Matrix.uniform ~nodes:3 ~demand:20. in
  let trace = Trace.generate ~mean_holding:2. ~rng ~duration:100. matrix in
  let total = Array.fold_left ( +. ) 0. trace.Trace.holdings in
  feq_at 0.1 "mean holding" 2.
    (total /. float_of_int (Trace.call_count trace))

let test_trace_validation () =
  let rng = Rng.create ~seed:1 in
  check_invalid "empty matrix" (fun () ->
      ignore (Trace.generate ~rng ~duration:10. (Matrix.zero ~nodes:3)));
  let matrix = Matrix.uniform ~nodes:3 ~demand:1. in
  check_invalid "bad duration" (fun () ->
      ignore (Trace.generate ~rng ~duration:0. matrix));
  (* nan first: at infinity an unchecked generator never returns *)
  List.iter
    (fun x ->
      let what = Printf.sprintf "%g" x in
      check_invalid ("duration " ^ what) (fun () ->
          ignore (Trace.generate ~rng ~duration:x matrix));
      check_invalid ("mean_holding " ^ what) (fun () ->
          ignore (Trace.generate ~mean_holding:x ~rng ~duration:10. matrix)))
    [ Float.nan; infinity; neg_infinity ];
  (* the generator draws inline, past [Rng.exponential]'s rate check, so
     it checks the rates once: unchecked, the first would hold every
     call for zero time and the second would never end *)
  check_invalid "holding rate overflows" (fun () ->
      ignore (Trace.generate ~mean_holding:1e-320 ~rng ~duration:10. matrix));
  check_invalid "total rate overflows" (fun () ->
      ignore
        (Trace.generate ~rng ~duration:10.
           (Matrix.uniform ~nodes:3 ~demand:1e308)))

let mk_call time src dst holding =
  { Trace.time; src; dst; holding; u = 0. }

let test_trace_of_calls () =
  let matrix = Matrix.uniform ~nodes:3 ~demand:1. in
  let trace =
    Trace.of_calls ~matrix ~duration:10.
      [ mk_call 1. 0 1 2.; mk_call 2. 1 2 1. ]
  in
  Alcotest.(check int) "count" 2 (Trace.call_count trace);
  Alcotest.(check int) "offered in window" 1 (Trace.offered_between trace 1.5 10.);
  check_invalid "unsorted" (fun () ->
      ignore
        (Trace.of_calls ~matrix ~duration:10.
           [ mk_call 2. 0 1 1.; mk_call 1. 1 2 1. ]));
  check_invalid "outside duration" (fun () ->
      ignore (Trace.of_calls ~matrix ~duration:10. [ mk_call 11. 0 1 1. ]));
  check_invalid "self call" (fun () ->
      ignore (Trace.of_calls ~matrix ~duration:10. [ mk_call 1. 1 1 1. ]));
  (* finite time and holding, infinite end: no departure order has it *)
  check_invalid "departure overflows" (fun () ->
      ignore
        (Trace.of_calls ~matrix ~duration:Float.max_float
           [ mk_call 1e308 0 1 1e308 ]));
  List.iter
    (fun duration ->
      check_invalid (Printf.sprintf "duration %g" duration) (fun () ->
          ignore (Trace.of_calls ~matrix ~duration [ mk_call 1. 0 1 1. ])))
    [ Float.nan; infinity ]

let test_trace_shift_merge () =
  let matrix = Matrix.uniform ~nodes:3 ~demand:1. in
  let a =
    Trace.of_calls ~matrix ~duration:10. [ mk_call 1. 0 1 1.; mk_call 5. 1 2 1. ]
  in
  let b = Trace.of_calls ~matrix ~duration:4. [ mk_call 2. 2 0 1. ] in
  let shifted = Trace.shift b 3. in
  Alcotest.(check (float 1e-12)) "shifted call time" 5.
    shifted.Trace.times.(0);
  Alcotest.(check (float 1e-12)) "shifted duration" 7. shifted.Trace.duration;
  let merged = Trace.merge a shifted in
  Alcotest.(check int) "merged count" 3 (Trace.call_count merged);
  Alcotest.(check bool) "merged sorted" true (Trace.check_sorted merged);
  Alcotest.(check (float 1e-12)) "merged duration" 10. merged.Trace.duration;
  Alcotest.(check (float 1e-12)) "matrices summed" 12.
    (Matrix.total merged.Trace.matrix);
  check_invalid "negative shift" (fun () -> ignore (Trace.shift a (-1.)));
  check_invalid "merge size mismatch" (fun () ->
      ignore
        (Trace.merge a
           (Trace.of_calls
              ~matrix:(Matrix.uniform ~nodes:4 ~demand:1.)
              ~duration:5. [])));
  check_invalid "merge class mismatch" (fun () ->
      ignore
        (Trace.merge a
           (Trace.of_class_calls ~matrix ~duration:5. ~bandwidths:[| 1; 6 |]
              [])))

let test_trace_shift_merge_edges () =
  let matrix = Matrix.uniform ~nodes:3 ~demand:1. in
  let a =
    Trace.of_calls ~matrix ~duration:10.
      [ mk_call 1. 0 1 1.; mk_call 5. 1 2 1. ]
  in
  (* zero shift is the identity *)
  let z = Trace.shift a 0. in
  Alcotest.(check (float 1e-12)) "zero shift keeps times" 1.
    z.Trace.times.(0);
  Alcotest.(check (float 1e-12)) "zero shift keeps duration" 10.
    z.Trace.duration;
  Alcotest.(check int) "zero shift keeps count" (Trace.call_count a)
    (Trace.call_count z);
  (* disjoint windows: every call of the shifted component lands after
     every call of the base, and the merge stays sorted *)
  let b = Trace.of_calls ~matrix ~duration:4. [ mk_call 2. 2 0 1. ] in
  let far = Trace.shift b 100. in
  let merged = Trace.merge a far in
  Alcotest.(check int) "disjoint merge count" 3 (Trace.call_count merged);
  Alcotest.(check bool) "disjoint merge sorted" true
    (Trace.check_sorted merged);
  Alcotest.(check (float 1e-12)) "disjoint merge duration" 104.
    merged.Trace.duration;
  Alcotest.(check (float 1e-12)) "last call is the shifted one" 102.
    merged.Trace.times.(2);
  (* merging in either order superposes the same summed matrix *)
  let m1 = Trace.merge a far and m2 = Trace.merge far a in
  Alcotest.(check (float 1e-12)) "summed matrix"
    (Matrix.total a.Trace.matrix +. Matrix.total b.Trace.matrix)
    (Matrix.total m1.Trace.matrix);
  Alcotest.(check (float 1e-12)) "merge commutes on the matrix"
    (Matrix.total m1.Trace.matrix) (Matrix.total m2.Trace.matrix);
  Alcotest.(check int) "merge commutes on the calls"
    (Trace.call_count m1) (Trace.call_count m2);
  (* merging with an empty trace is the identity on calls *)
  let empty = Trace.of_calls ~matrix ~duration:2. [] in
  let with_empty = Trace.merge a empty in
  Alcotest.(check int) "empty merge keeps calls" (Trace.call_count a)
    (Trace.call_count with_empty);
  Alcotest.(check (float 1e-12)) "empty merge keeps duration" 10.
    with_empty.Trace.duration

(* ------------------------------------------------------------------ *)
(* Stats *)

let offer s ~src ~dst = Stats.record_offered s ~src ~dst ~cls:0 ~bandwidth:1
let block s ~src ~dst = Stats.record_blocked s ~src ~dst ~cls:0 ~bandwidth:1

let test_stats_counters () =
  let s = Stats.empty ~nodes:3 ~classes:1 in
  offer s ~src:0 ~dst:1;
  offer s ~src:0 ~dst:1;
  offer s ~src:1 ~dst:2;
  block s ~src:0 ~dst:1;
  Stats.record_primary s;
  Stats.record_alternate s ~hops:3;
  feq_at 1e-12 "network blocking" (1. /. 3.) (Stats.blocking s);
  (match Stats.od_blocking s ~src:0 ~dst:1 with
  | Some b -> feq_at 1e-12 "od blocking" 0.5 b
  | None -> Alcotest.fail "expected blocking");
  Alcotest.(check (option (float 0.))) "no traffic pair" None
    (Stats.od_blocking s ~src:2 ~dst:0);
  feq_at 1e-12 "alternate fraction" 0.5 (Stats.alternate_fraction s);
  Alcotest.(check int) "alternate hops" 3 s.Stats.alternate_hops

let test_stats_merge () =
  let a = Stats.empty ~nodes:2 ~classes:1
  and b = Stats.empty ~nodes:2 ~classes:1 in
  offer a ~src:0 ~dst:1;
  block a ~src:0 ~dst:1;
  offer b ~src:0 ~dst:1;
  let m = Stats.merge a b in
  Alcotest.(check int) "offered pooled" 2 m.Stats.offered;
  feq_at 1e-12 "blocking pooled" 0.5 (Stats.blocking m);
  check_invalid "size mismatch" (fun () ->
      ignore (Stats.merge a (Stats.empty ~nodes:3 ~classes:1)));
  check_invalid "class count mismatch" (fun () ->
      ignore (Stats.merge a (Stats.empty ~nodes:2 ~classes:2)))

let test_stats_summarize () =
  let s = Stats.summarize [ 1.; 2.; 3. ] in
  feq_at 1e-12 "mean" 2. s.Stats.mean;
  (* sample std dev 1, stderr 1/sqrt(3) *)
  feq_at 1e-9 "stderr" (1. /. sqrt 3.) s.Stats.std_error;
  Alcotest.(check int) "replications" 3 s.Stats.replications;
  let single = Stats.summarize [ 5. ] in
  feq_at 1e-12 "single mean" 5. single.Stats.mean;
  feq_at 1e-12 "single stderr 0" 0. single.Stats.std_error;
  check_invalid "empty" (fun () -> ignore (Stats.summarize []))

let test_stats_skew () =
  let s = Stats.empty ~nodes:2 ~classes:1 in
  (* pair 0->1 blocks 50%, pair 1->0 blocks 0% *)
  offer s ~src:0 ~dst:1;
  offer s ~src:0 ~dst:1;
  block s ~src:0 ~dst:1;
  offer s ~src:1 ~dst:0;
  let skew = Stats.od_skew s in
  feq_at 1e-12 "min" 0. skew.Stats.min_blocking;
  feq_at 1e-12 "max" 0.5 skew.Stats.max_blocking;
  feq_at 1e-12 "mean" 0.25 skew.Stats.mean_blocking;
  feq_at 1e-9 "cv" 1. skew.Stats.coefficient_of_variation;
  check_invalid "no traffic" (fun () ->
      ignore (Stats.od_skew (Stats.empty ~nodes:2 ~classes:1)))

(* ------------------------------------------------------------------ *)
(* Engine: deterministic micro-scenarios *)

let one_link_graph capacity =
  Graph.of_edges ~nodes:2 ~capacity [ (0, 1) ]

let direct_policy g =
  let routes = Route_table.build g in
  let primary (trace : Trace.t) i =
    Route_table.primary routes ~src:trace.Trace.srcs.(i) ~dst:trace.Trace.dsts.(i)
  in
  { Engine.name = "direct";
    decide =
      (fun ~occupancy trace i ->
        let p = primary trace i in
        let free =
          Array.for_all
            (fun id -> occupancy.(id) < (Graph.link g id).Link.capacity)
            p.Path.link_ids
        in
        if free then Engine.Routed p else Engine.Lost);
    primary = (fun trace i -> Some (primary trace i)) }

let test_time_series () =
  let g = one_link_graph 1 in
  let matrix = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then 1. else 0.) in
  let recorder = Time_series.create ~window:5. ~duration:20. in
  let policy = Time_series.wrap recorder (direct_policy g) in
  (* window 0: one carried; window 1: one carried, one blocked;
     window 3: one carried *)
  let trace =
    Trace.of_calls ~matrix ~duration:20.
      [ mk_call 1. 0 1 6.; mk_call 6. 0 1 0.5; mk_call 8. 0 1 1.;
        mk_call 16. 0 1 1. ]
  in
  let (_ : Stats.t) = Engine.run ~warmup:0. ~graph:g ~policy trace in
  (match Time_series.windows recorder with
  | [ w0; w1; w2; w3 ] ->
    Alcotest.(check (pair int int)) "w0" (1, 0) (w0.Time_series.offered, w0.Time_series.blocked);
    Alcotest.(check (pair int int)) "w1" (2, 1) (w1.Time_series.offered, w1.Time_series.blocked);
    Alcotest.(check (pair int int)) "w2 empty" (0, 0) (w2.Time_series.offered, w2.Time_series.blocked);
    Alcotest.(check (pair int int)) "w3" (1, 0) (w3.Time_series.offered, w3.Time_series.blocked)
  | l -> Alcotest.failf "expected 4 windows, got %d" (List.length l));
  Alcotest.(check (float 1e-12)) "peak" 0.5 (Time_series.peak_blocking recorder);
  check_invalid "bad window" (fun () ->
      ignore (Time_series.create ~window:0. ~duration:10.))

let test_engine_blocking_on_full_link () =
  let g = one_link_graph 1 in
  let matrix = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then 1. else 0.) in
  (* two overlapping calls then a third after the first departs *)
  let trace =
    Trace.of_calls ~matrix ~duration:10.
      [ mk_call 1. 0 1 3.;  (* holds [1,4) *)
        mk_call 2. 0 1 1.;  (* blocked: link full *)
        mk_call 5. 0 1 1.  (* free again *) ]
  in
  let stats = Engine.run ~warmup:0. ~graph:g ~policy:(direct_policy g) trace in
  Alcotest.(check int) "offered" 3 stats.Stats.offered;
  Alcotest.(check int) "blocked" 1 stats.Stats.blocked;
  feq_at 1e-12 "blocking third" (1. /. 3.) (Stats.blocking stats)

let test_engine_departure_frees_capacity () =
  let g = one_link_graph 1 in
  let matrix = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then 1. else 0.) in
  let trace =
    Trace.of_calls ~matrix ~duration:10.
      [ mk_call 1. 0 1 1.; mk_call 2.5 0 1 1. ]
  in
  let stats = Engine.run ~warmup:0. ~graph:g ~policy:(direct_policy g) trace in
  Alcotest.(check int) "none blocked" 0 stats.Stats.blocked

let test_engine_warmup_exclusion () =
  let g = one_link_graph 1 in
  let matrix = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then 1. else 0.) in
  (* the warm-up call occupies the link but is not counted; the second
     call is measured and blocked by it *)
  let trace =
    Trace.of_calls ~matrix ~duration:20.
      [ mk_call 1. 0 1 100.; mk_call 11. 0 1 1. ]
  in
  let stats = Engine.run ~warmup:10. ~graph:g ~policy:(direct_policy g) trace in
  Alcotest.(check int) "only measured call offered" 1 stats.Stats.offered;
  Alcotest.(check int) "it was blocked" 1 stats.Stats.blocked

let test_engine_rejects_bad_policy () =
  let g = one_link_graph 1 in
  let matrix = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then 1. else 0.) in
  let routes = Route_table.build g in
  let p = Route_table.primary routes ~src:0 ~dst:1 in
  let always_route =
    { Engine.name = "bad";
      decide = (fun ~occupancy:_ _ _ -> Engine.Routed p);
      primary = (fun _ _ -> Some p) }
  in
  let trace =
    Trace.of_calls ~matrix ~duration:10.
      [ mk_call 1. 0 1 5.; mk_call 2. 0 1 5. ]
  in
  check_invalid "routing over full link detected" (fun () ->
      ignore (Engine.run ~warmup:0. ~graph:g ~policy:always_route trace))

let test_engine_alternate_accounting () =
  (* triangle: direct 0->1 full, detour 0->2->1 counted as alternate *)
  let g = Graph.of_edges ~nodes:3 ~capacity:1 [ (0, 1); (1, 2); (0, 2) ] in
  let routes = Route_table.build g in
  let admission =
    Arnet_core.Admission.unprotected
      ~capacities:(Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g))
  in
  let policy =
    Arnet_core.Controller.compile ~name:"two-tier" ~routes ~admission
      ~allow_alternates:true ()
  in
  let matrix = Matrix.make ~nodes:3 (fun i j -> if i = 0 && j = 1 then 1. else 0.) in
  let trace =
    Trace.of_calls ~matrix ~duration:10.
      [ mk_call 1. 0 1 5.; mk_call 2. 0 1 5. ]
  in
  let stats = Engine.run ~warmup:0. ~graph:g ~policy trace in
  Alcotest.(check int) "primary carried" 1 stats.Stats.carried_primary;
  Alcotest.(check int) "alternate carried" 1 stats.Stats.carried_alternate;
  Alcotest.(check int) "alternate hops" 2 stats.Stats.alternate_hops;
  Alcotest.(check int) "none blocked" 0 stats.Stats.blocked

let test_engine_determinism_and_replication () =
  let g = Builders.full_mesh ~nodes:3 ~capacity:5 in
  let matrix = Matrix.uniform ~nodes:3 ~demand:4. in
  let routes = Route_table.build g in
  let policy = Arnet_core.Scheme.uncontrolled routes in
  let rng () = Rng.substream (Rng.create ~seed:9) "trace" in
  let trace = Trace.generate ~rng:(rng ()) ~duration:30. matrix in
  let s1 = Engine.run ~warmup:5. ~graph:g ~policy trace in
  let s2 = Engine.run ~warmup:5. ~graph:g ~policy trace in
  Alcotest.(check int) "identical reruns: offered" s1.Stats.offered s2.Stats.offered;
  Alcotest.(check int) "identical reruns: blocked" s1.Stats.blocked s2.Stats.blocked;
  (* replicate shares the trace across policies: same offered count *)
  let results =
    Engine.replicate ~warmup:5. ~seeds:[ 1; 2 ] ~duration:30. ~graph:g ~matrix
      ~policies:
        [ Arnet_core.Scheme.uncontrolled routes;
          Arnet_core.Scheme.single_path routes ]
      ()
  in
  (match results with
  | [ (_, [ u1; u2 ]); (_, [ s1; s2 ]) ] ->
    Alcotest.(check int) "seed1 same offered" u1.Stats.offered s1.Stats.offered;
    Alcotest.(check int) "seed2 same offered" u2.Stats.offered s2.Stats.offered;
    Alcotest.(check bool) "different seeds different traces" true
      (u1.Stats.offered <> u2.Stats.offered)
  | _ -> Alcotest.fail "unexpected result shape");
  check_invalid "no seeds" (fun () ->
      ignore
        (Engine.replicate ~seeds:[] ~duration:30. ~graph:g ~matrix ~policies:[]
           ()))

let test_engine_validation () =
  let g = one_link_graph 1 in
  let matrix = Matrix.make ~nodes:2 (fun i _ -> if i = 0 then 1. else 0.) in
  let trace = Trace.of_calls ~matrix ~duration:10. [ mk_call 1. 0 1 1. ] in
  check_invalid "warmup >= duration" (fun () ->
      ignore (Engine.run ~warmup:10. ~graph:g ~policy:(direct_policy g) trace));
  (* NaN fails every comparison: rejecting [warmup < 0.] or
     [warmup >= duration] would let it through and measure nothing *)
  check_invalid "NaN warmup" (fun () ->
      ignore (Engine.run ~warmup:nan ~graph:g ~policy:(direct_policy g) trace));
  let bigger = Builders.full_mesh ~nodes:3 ~capacity:1 in
  check_invalid "graph size mismatch" (fun () ->
      ignore
        (Engine.run ~warmup:0. ~graph:bigger ~policy:(direct_policy bigger)
           trace))

(* ------------------------------------------------------------------ *)
(* the departure order and the walk over it *)

(* random calls on 3 nodes whose ends tie often: integer and half
   arrival times, some near 1e6, where a 1e-12 holding vanishes and the
   call ends at its own arrival time *)
let gen_calls =
  QCheck2.Gen.(
    let call =
      map
        (fun (far, slot, hold, src, hop) ->
          ( (if far then 1e6 else 0.) +. (float_of_int slot /. 2.),
            mk_call 0. src ((src + hop) mod 3)
              [| 1e-12; 0.5; 1.; 2.; 3. |].(hold) ))
        (tup5 bool (int_range 0 19) (int_range 0 4) (int_range 0 2)
           (int_range 1 2))
    in
    map
      (fun calls ->
        List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) calls
        |> List.map (fun (time, c) -> { c with Trace.time }))
      (list_size (int_range 0 60) call))

let walk_matrix = Matrix.uniform ~nodes:3 ~demand:1.
let walk_duration = 1e6 +. 20.

let sorted_by_end (t : Trace.t) =
  List.sort
    (fun a b -> compare (t.Trace.ends.(a), a) (t.Trace.ends.(b), b))
    (List.init (Trace.call_count t) Fun.id)

(* every constructor's order is the call indices sorted by (end, index),
   both through the bucket sort and, for a trace merged with a copy
   shifted far away, through its comparison-sort fallback *)
let prop_trace_order =
  QCheck2.Test.make ~count:300
    ~name:"every constructor's order sorts calls by (end, index)"
    QCheck2.Gen.(tup3 gen_calls gen_calls (int_range 0 1000))
    (fun (a, b, seed) ->
      let of_calls calls =
        Trace.of_calls ~matrix:walk_matrix ~duration:walk_duration calls
      in
      let ta = of_calls a and tb = of_calls b in
      let rng () = Rng.create ~seed in
      let traces =
        [ ta;
          Trace.of_class_calls ~matrix:walk_matrix ~duration:walk_duration
            ~bandwidths:[| 1; 2 |]
            (List.mapi (fun i c -> (i mod 2, c)) b);
          Trace.shift ta 0.25;
          Trace.merge ta tb;
          Trace.merge ta (Trace.shift tb 1e6);
          Trace.generate ~rng:(rng ()) ~duration:20. walk_matrix;
          Trace.generate_classes ~rng:(rng ()) ~duration:20.
            ~bandwidths:[| 1; 2 |] ~mean_holdings:[| 1.; 0.5 |]
            [| walk_matrix; walk_matrix |] ]
      in
      List.for_all
        (fun t -> Array.to_list t.Trace.order = sorted_by_end t)
        traces)

type walk_entry = Arr of int | Dep of float * int

(* Engine.run's semantics replayed with the departures in a swap heap:
   at each arrival the script events due by it, each after the
   departures due by its time (a FAIL drops every queued call crossing
   its link), then the departures due by the arrival, then the
   decision.  Returns the log, the occupancy each decision saw and the
   FAIL drop count. *)
let heap_replay ~graph ~script ~(policy : Engine.policy) trace =
  let { Trace.times; ends; classes; bandwidths; duration; _ } = trace in
  let capacity =
    Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links graph)
  in
  let occupancy = Array.make (Array.length capacity) 0 in
  let failed = Array.make (Array.length capacity) false in
  let heap = Swap_heap.create () in
  let dropped = Array.make (Array.length times) false in
  let log = ref [] and seen = ref [] and drops = ref 0 in
  let add j ids sign =
    let bw = sign * bandwidths.(classes.(j)) in
    Array.iter (fun id -> occupancy.(id) <- occupancy.(id) + bw) ids
  in
  let release time j ids =
    add j ids (-1);
    log := Dep (time, j) :: !log
  in
  let depart_until time =
    while heap.Swap_heap.size > 0 && heap.Swap_heap.times.(0) <= time do
      let t, (j, ids) = Swap_heap.pop heap in
      if not dropped.(j) then release t j ids
    done
  in
  let events = Script.to_array script and cursor = ref 0 in
  Array.iteri
    (fun i time ->
      while
        !cursor < Array.length events && events.(!cursor).Script.time <= time
      do
        let e = events.(!cursor) in
        let k = e.Script.link in
        depart_until e.Script.time;
        (match e.Script.action with
        | Script.Fail when not failed.(k) ->
          failed.(k) <- true;
          for s = 0 to heap.Swap_heap.size - 1 do
            let j, ids = Option.get heap.Swap_heap.data.(s) in
            if (not dropped.(j)) && Array.exists (fun id -> failed.(id)) ids
            then begin
              release e.Script.time j ids;
              dropped.(j) <- true;
              incr drops
            end
          done;
          occupancy.(k) <- capacity.(k)
        | Script.Repair when failed.(k) ->
          failed.(k) <- false;
          occupancy.(k) <- 0
        | Script.Fail | Script.Repair -> ());
        incr cursor
      done;
      depart_until time;
      log := Arr i :: !log;
      seen := Array.copy occupancy :: !seen;
      match policy.Engine.decide ~occupancy trace i with
      | Engine.Lost -> ()
      | Engine.Routed p ->
        add i p.Path.link_ids 1;
        Swap_heap.push heap ends.(i) (i, p.Path.link_ids))
    times;
  depart_until duration;
  (List.rev !log, List.rev !seen, !drops)

(* the same through Engine.run: the policy records the occupancy each
   decision sees and routes every call on its own copy of the path, so a
   [Departure]'s link array names its call *)
let walk_replay ~observe ~graph ~script ~(policy : Engine.policy) trace =
  let seen = ref [] and routed = ref [] and log = ref [] and arrivals = ref 0 in
  let decide ~occupancy trace i =
    seen := Array.copy occupancy :: !seen;
    match policy.Engine.decide ~occupancy trace i with
    | Engine.Lost -> Engine.Lost
    | Engine.Routed p ->
      let link_ids = Array.copy p.Path.link_ids in
      routed := (link_ids, i) :: !routed;
      Engine.Routed
        (Path.with_link_ids_unchecked ~nodes:(Array.of_list (Path.nodes p))
           ~link_ids)
  in
  let observer = function
    | Arnet_obs.Event.Arrival _ ->
      log := Arr !arrivals :: !log;
      incr arrivals
    | Arnet_obs.Event.Departure { time; links } ->
      log := Dep (time, List.assq links !routed) :: !log
    | _ -> ()
  in
  let stats =
    Engine.run ~warmup:0.
      ?observer:(if observe then Some observer else None)
      ~script ~graph ~policy:{ policy with Engine.decide } trace
  in
  (List.rev !log, List.rev !seen, stats.Stats.dropped)

(* departures between two arrivals, sorted: the walk may order calls
   that end at one instant differently from the heap *)
let canonical log =
  let rec go seg = function
    | [] -> List.sort compare seg
    | (Arr _ as a) :: rest -> List.sort compare seg @ (a :: go [] rest)
    | (Dep _ as d) :: rest -> go (d :: seg) rest
  in
  go [] log

let gen_script =
  QCheck2.Gen.(
    list_size (int_range 0 8)
      (map
         (fun (far, slot, link, fail) ->
           { Script.time =
               (if far then 1e6 else 0.) +. (float_of_int slot /. 2.);
             link;
             action = (if fail then Script.Fail else Script.Repair) })
         (tup4 bool (int_range 0 23) (int_range 0 5) bool)))

let prop_walk_equals_heap =
  let graph = Builders.full_mesh ~nodes:3 ~capacity:2 in
  let policy = Arnet_core.Scheme.uncontrolled (Route_table.build graph) in
  QCheck2.Test.make ~count:500
    ~name:"the walk releases exactly what a departure heap pops"
    QCheck2.Gen.(tup3 gen_calls gen_script bool)
    (fun (calls, events, observe) ->
      let trace =
        Trace.of_calls ~matrix:walk_matrix ~duration:walk_duration calls
      in
      let script = Script.of_events events in
      let want_log, want_seen, want_drops =
        heap_replay ~graph ~script ~policy trace
      in
      let log, seen, drops = walk_replay ~observe ~graph ~script ~policy trace in
      seen = want_seen && drops = want_drops
      && ((not observe) || canonical log = canonical want_log))

(* ------------------------------------------------------------------ *)
(* replication: one trace per seed through every policy, frozen *)

let replication_seeds = [ 1; 2; 3; 4; 5 ]

(* per policy and seed: offered, blocked, carried on the primary,
   carried on an alternate, alternate hops *)
let check_replication msg frozen by_policy =
  Alcotest.(check (list (pair string (list int))))
    msg frozen
    (List.concat_map
       (fun (name, runs) ->
         List.map2
           (fun seed (r : Stats.t) ->
             ( Printf.sprintf "%s seed %d" name seed,
               [ r.Stats.offered; r.Stats.blocked; r.Stats.carried_primary;
                 r.Stats.carried_alternate; r.Stats.alternate_hops ] ))
           replication_seeds runs)
       by_policy)

let replicate_three ~graph ~matrix =
  let routes = Route_table.build graph in
  Engine.replicate ~warmup:5. ~seeds:replication_seeds ~duration:40. ~graph
    ~matrix
    ~policies:
      [ Arnet_core.Scheme.single_path routes;
        Arnet_core.Scheme.uncontrolled routes;
        Arnet_core.Scheme.controlled_auto ~matrix routes ]
    ()

let test_replication_quadrangle_golden () =
  let graph = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:20. in
  check_replication "quadrangle"
    [ ("single-path seed 1", [ 8280; 39; 8241; 0; 0 ]);
      ("single-path seed 2", [ 8454; 80; 8374; 0; 0 ]);
      ("single-path seed 3", [ 8359; 59; 8300; 0; 0 ]);
      ("single-path seed 4", [ 8430; 83; 8347; 0; 0 ]);
      ("single-path seed 5", [ 8300; 69; 8231; 0; 0 ]);
      ("uncontrolled seed 1", [ 8280; 0; 8230; 50; 100 ]);
      ("uncontrolled seed 2", [ 8454; 0; 8346; 108; 216 ]);
      ("uncontrolled seed 3", [ 8359; 0; 8282; 77; 154 ]);
      ("uncontrolled seed 4", [ 8430; 3; 8303; 124; 248 ]);
      ("uncontrolled seed 5", [ 8300; 0; 8208; 92; 185 ]);
      ("controlled seed 1", [ 8280; 2; 8236; 42; 84 ]);
      ("controlled seed 2", [ 8454; 3; 8362; 89; 178 ]);
      ("controlled seed 3", [ 8359; 1; 8291; 67; 136 ]);
      ("controlled seed 4", [ 8430; 7; 8320; 103; 209 ]);
      ("controlled seed 5", [ 8300; 3; 8219; 78; 160 ]) ]
    (replicate_three ~graph ~matrix)

let test_replication_waxman_golden () =
  (* a sparse Waxman mesh: asymmetric routes, some long alternates *)
  let graph = Builders.waxman ~seed:11 ~nodes:8 ~capacity:20 () in
  let matrix = Matrix.uniform ~nodes:8 ~demand:6. in
  check_replication "waxman"
    [ ("single-path seed 1", [ 11657; 4098; 7559; 0; 0 ]);
      ("single-path seed 2", [ 11853; 4186; 7667; 0; 0 ]);
      ("single-path seed 3", [ 11681; 4109; 7572; 0; 0 ]);
      ("single-path seed 4", [ 11748; 4084; 7664; 0; 0 ]);
      ("single-path seed 5", [ 11640; 4166; 7474; 0; 0 ]);
      ("uncontrolled seed 1", [ 11657; 3642; 5156; 2859; 7953 ]);
      ("uncontrolled seed 2", [ 11853; 3719; 5244; 2890; 8121 ]);
      ("uncontrolled seed 3", [ 11681; 3563; 5322; 2796; 7823 ]);
      ("uncontrolled seed 4", [ 11748; 3680; 5128; 2940; 8197 ]);
      ("uncontrolled seed 5", [ 11640; 3636; 5097; 2907; 8120 ]);
      ("controlled seed 1", [ 11657; 3350; 7551; 756; 2026 ]);
      ("controlled seed 2", [ 11853; 3442; 7654; 757; 2001 ]);
      ("controlled seed 3", [ 11681; 3351; 7560; 770; 2048 ]);
      ("controlled seed 4", [ 11748; 3369; 7655; 724; 1962 ]);
      ("controlled seed 5", [ 11640; 3404; 7466; 770; 2038 ]) ]
    (replicate_three ~graph ~matrix)

let test_replication_adaptive_golden () =
  (* a stateful policy through the factory: fresh estimators per seed *)
  let graph = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:25. in
  let routes = Route_table.build graph in
  check_replication "replicate_fresh"
    [ ("single-path seed 1", [ 10429; 530; 9899; 0; 0 ]);
      ("single-path seed 2", [ 10602; 573; 10029; 0; 0 ]);
      ("single-path seed 3", [ 10449; 524; 9925; 0; 0 ]);
      ("single-path seed 4", [ 10494; 646; 9848; 0; 0 ]);
      ("single-path seed 5", [ 10347; 508; 9839; 0; 0 ]);
      ("controlled-adaptive seed 1", [ 10429; 519; 9389; 521; 1094 ]);
      ("controlled-adaptive seed 2", [ 10602; 500; 9558; 544; 1140 ]);
      ("controlled-adaptive seed 3", [ 10449; 507; 9402; 540; 1120 ]);
      ("controlled-adaptive seed 4", [ 10494; 610; 9354; 530; 1106 ]);
      ("controlled-adaptive seed 5", [ 10347; 430; 9340; 577; 1219 ]) ]
    (Engine.replicate_fresh ~warmup:5. ~seeds:replication_seeds
       ~duration:40. ~graph ~matrix
       ~policies:(fun () ->
         [ Arnet_core.Scheme.single_path routes;
           Arnet_core.Scheme.controlled_adaptive routes ])
       ())

let test_replication_failure_unwrapped () =
  let graph = Builders.full_mesh ~nodes:4 ~capacity:30 in
  let matrix = Matrix.uniform ~nodes:4 ~demand:20. in
  let bomb =
    { Engine.name = "bomb";
      decide = (fun ~occupancy:_ _ _ -> failwith "bomb");
      primary = (fun _ _ -> None) }
  in
  match
    Engine.replicate ~warmup:5. ~seeds:replication_seeds ~duration:40. ~graph
      ~matrix ~policies:[ bomb ] ()
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "raw failure" "bomb" m

let test_replication_odometer () =
  (* one trace per seed, replayed once per policy *)
  let graph = Builders.full_mesh ~nodes:3 ~capacity:10 in
  let matrix = Matrix.uniform ~nodes:3 ~demand:5. in
  let routes = Route_table.build graph in
  let seeds = [ 200; 201; 202 ] in
  let per_policy =
    List.fold_left
      (fun acc seed ->
        let rng = Rng.substream (Rng.create ~seed) "trace" in
        acc + Trace.call_count (Trace.generate ~rng ~duration:30. matrix))
      0 seeds
  in
  let before = Engine.calls_simulated () in
  ignore
    (Engine.replicate ~warmup:5. ~seeds ~duration:30. ~graph ~matrix
       ~policies:
         [ Arnet_core.Scheme.uncontrolled routes;
           Arnet_core.Scheme.single_path routes ]
       ()
      : (string * Stats.t list) list);
  Alcotest.(check int) "replayed calls counted" (2 * per_policy)
    (Engine.calls_simulated () - before)

let () =
  Alcotest.run "sim"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "substreams" `Quick test_rng_substreams;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "bits53" `Quick test_rng_bits53;
          Alcotest.test_case "poisson" `Quick test_rng_poisson ] );
      ( "event-queue",
        [ Alcotest.test_case "ordering" `Quick test_event_queue_ordering;
          Alcotest.test_case "pop_until" `Quick test_event_queue_pop_until;
          Alcotest.test_case "pop_until boundary" `Quick
            test_event_queue_pop_until_boundary;
          Alcotest.test_case "indexed api" `Quick test_event_queue_indexed_api;
          Alcotest.test_case "payload release" `Quick
            test_event_queue_payload_release;
          QCheck_alcotest.to_alcotest prop_event_queue_sorts;
          QCheck_alcotest.to_alcotest prop_event_queue_model;
          QCheck_alcotest.to_alcotest prop_event_queue_swap_heap_order ] );
      ( "trace",
        [ Alcotest.test_case "generation" `Quick test_trace_generation;
          Alcotest.test_case "pair frequencies" `Quick
            test_trace_pair_frequencies;
          Alcotest.test_case "holding mean" `Quick test_trace_holding_mean;
          Alcotest.test_case "validation" `Quick test_trace_validation;
          Alcotest.test_case "of_calls" `Quick test_trace_of_calls;
          Alcotest.test_case "shift/merge" `Quick test_trace_shift_merge;
          Alcotest.test_case "shift/merge edge cases" `Quick
            test_trace_shift_merge_edges;
          QCheck_alcotest.to_alcotest prop_trace_order ] );
      ( "stats",
        [ Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
          Alcotest.test_case "skew" `Quick test_stats_skew ] );
      ( "engine",
        [ Alcotest.test_case "blocking on full link" `Quick
            test_engine_blocking_on_full_link;
          Alcotest.test_case "departure frees capacity" `Quick
            test_engine_departure_frees_capacity;
          Alcotest.test_case "warmup exclusion" `Quick
            test_engine_warmup_exclusion;
          Alcotest.test_case "bad policy rejected" `Quick
            test_engine_rejects_bad_policy;
          Alcotest.test_case "alternate accounting" `Quick
            test_engine_alternate_accounting;
          Alcotest.test_case "determinism/replication" `Quick
            test_engine_determinism_and_replication;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          QCheck_alcotest.to_alcotest prop_walk_equals_heap ] );
      ( "replication",
        [ Alcotest.test_case "quadrangle golden" `Quick
            test_replication_quadrangle_golden;
          Alcotest.test_case "asymmetric mesh golden" `Quick
            test_replication_waxman_golden;
          Alcotest.test_case "replicate_fresh adaptive golden" `Quick
            test_replication_adaptive_golden;
          Alcotest.test_case "raising policy unwrapped" `Quick
            test_replication_failure_unwrapped;
          Alcotest.test_case "calls_simulated counts replays" `Quick
            test_replication_odometer ] );
      ( "time-series",
        [ Alcotest.test_case "windows" `Quick test_time_series ] ) ]
