open Arnet_traffic

type call = {
  time : float;
  src : int;
  dst : int;
  holding : float;
  u : float;
}

type t = {
  calls : call array;
  times : float array;
  srcs : int array;
  dsts : int array;
  holdings : float array;
  us : float array;
  ends : float array;
  duration : float;
  matrix : Matrix.t;
}

(* every constructor funnels through [pack]: the packed columns are
   filled from the record view in one pass, with the departure deadline
   [time + holding] computed straight into its float array (never boxed) *)
let pack ~duration ~matrix calls =
  let n = Array.length calls in
  let times = Array.make n 0. in
  let holdings = Array.make n 0. in
  let us = Array.make n 0. in
  let ends = Array.make n 0. in
  let srcs = Array.make n 0 in
  let dsts = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = calls.(i) in
    times.(i) <- c.time;
    srcs.(i) <- c.src;
    dsts.(i) <- c.dst;
    holdings.(i) <- c.holding;
    us.(i) <- c.u;
    ends.(i) <- c.time +. c.holding
  done;
  { calls; times; srcs; dsts; holdings; us; ends; duration; matrix }

let generate ?(mean_holding = 1.) ~rng ~duration matrix =
  if duration <= 0. || not (Float.is_finite duration) then
    invalid_arg "Trace.generate: duration not positive and finite";
  if mean_holding <= 0. || not (Float.is_finite mean_holding) then
    invalid_arg "Trace.generate: mean_holding not positive and finite";
  let total = Matrix.total matrix in
  if total <= 0. then invalid_arg "Trace.generate: empty traffic matrix";
  (* cumulative demand over positive pairs, for inverse-cdf pair choice *)
  let pairs = ref [] in
  Matrix.iter_demands matrix (fun i j d -> pairs := (i, j, d) :: !pairs);
  let pairs = Array.of_list (List.rev !pairs) in
  let np = Array.length pairs in
  let cumulative = Array.make np 0. in
  let acc = ref 0. in
  Array.iteri
    (fun idx (_, _, d) ->
      acc := !acc +. d;
      cumulative.(idx) <- !acc)
    pairs;
  let pick_pair x =
    (* smallest idx with cumulative.(idx) > x *)
    let lo = ref 0 and hi = ref (np - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) > x then hi := mid else lo := mid + 1
    done;
    pairs.(!lo)
  in
  let holding_rate = 1. /. mean_holding in
  (* generate straight into the SoA columns (amortised doubling); the
     record view is derived once at the end.  The current time lives in
     a one-element float array so the accumulator stays unboxed. *)
  let cap = ref 1024 in
  let times = ref (Array.make !cap 0.) in
  let holdings = ref (Array.make !cap 0.) in
  let us = ref (Array.make !cap 0.) in
  let srcs = ref (Array.make !cap 0) in
  let dsts = ref (Array.make !cap 0) in
  let n = ref 0 in
  let grow () =
    let cap' = 2 * !cap in
    let extend mk a = let b = mk cap' in Array.blit a 0 b 0 !cap; b in
    times := extend (fun c -> Array.make c 0.) !times;
    holdings := extend (fun c -> Array.make c 0.) !holdings;
    us := extend (fun c -> Array.make c 0.) !us;
    srcs := extend (fun c -> Array.make c 0) !srcs;
    dsts := extend (fun c -> Array.make c 0) !dsts;
    cap := cap'
  in
  let t = Array.make 1 (Rng.exponential rng ~rate:total) in
  while t.(0) < duration do
    let src, dst, _ = pick_pair (Rng.float rng !acc) in
    let holding = Rng.exponential rng ~rate:holding_rate in
    let u = Rng.uniform rng in
    if !n = !cap then grow ();
    let i = !n in
    !times.(i) <- t.(0);
    !holdings.(i) <- holding;
    !us.(i) <- u;
    !srcs.(i) <- src;
    !dsts.(i) <- dst;
    n := i + 1;
    t.(0) <- t.(0) +. Rng.exponential rng ~rate:total
  done;
  let n = !n in
  let times = Array.sub !times 0 n in
  let holdings = Array.sub !holdings 0 n in
  let us = Array.sub !us 0 n in
  let srcs = Array.sub !srcs 0 n in
  let dsts = Array.sub !dsts 0 n in
  let ends = Array.make n 0. in
  for i = 0 to n - 1 do
    ends.(i) <- times.(i) +. holdings.(i)
  done;
  let calls =
    Array.init n (fun i ->
        { time = times.(i);
          src = srcs.(i);
          dst = dsts.(i);
          holding = holdings.(i);
          u = us.(i) })
  in
  { calls; times; srcs; dsts; holdings; us; ends; duration; matrix }

let of_calls ~matrix ~duration calls =
  if duration <= 0. || not (Float.is_finite duration) then
    invalid_arg "Trace.of_calls: duration not positive and finite";
  let n = Matrix.nodes matrix in
  let check prev c =
    if c.time < prev then invalid_arg "Trace.of_calls: calls not sorted";
    if c.time < 0. || c.time >= duration then
      invalid_arg "Trace.of_calls: call outside [0, duration)";
    if c.holding <= 0. || not (Float.is_finite c.holding) then
      invalid_arg "Trace.of_calls: bad holding time";
    if c.u < 0. || c.u >= 1. then invalid_arg "Trace.of_calls: u outside [0,1)";
    if c.src < 0 || c.src >= n || c.dst < 0 || c.dst >= n || c.src = c.dst
    then invalid_arg "Trace.of_calls: bad endpoints";
    c.time
  in
  let (_ : float) = List.fold_left check 0. calls in
  pack ~duration ~matrix (Array.of_list calls)

let shift t dt =
  if dt < 0. || not (Float.is_finite dt) then
    invalid_arg "Trace.shift: negative shift";
  pack ~duration:(t.duration +. dt) ~matrix:t.matrix
    (Array.map (fun c -> { c with time = c.time +. dt }) t.calls)

let merge a b =
  if Matrix.nodes a.matrix <> Matrix.nodes b.matrix then
    invalid_arg "Trace.merge: node count mismatch";
  let na = Array.length a.calls and nb = Array.length b.calls in
  let out = Array.make (na + nb) { time = 0.; src = 0; dst = 1; holding = 1.; u = 0. } in
  let i = ref 0 and j = ref 0 in
  for k = 0 to na + nb - 1 do
    let take_a =
      !j >= nb || (!i < na && a.calls.(!i).time <= b.calls.(!j).time)
    in
    if take_a then begin
      out.(k) <- a.calls.(!i);
      incr i
    end
    else begin
      out.(k) <- b.calls.(!j);
      incr j
    end
  done;
  pack
    ~duration:(Float.max a.duration b.duration)
    ~matrix:(Matrix.add a.matrix b.matrix)
    out

let call_count t = Array.length t.calls

let offered_between t lo hi =
  Array.fold_left
    (fun acc c -> if c.time >= lo && c.time < hi then acc + 1 else acc)
    0 t.calls

let check_sorted t =
  let ok = ref true in
  for i = 1 to Array.length t.calls - 1 do
    if t.calls.(i).time < t.calls.(i - 1).time then ok := false
  done;
  !ok
