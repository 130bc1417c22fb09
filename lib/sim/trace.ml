open Arnet_traffic

type call = {
  time : float;
  src : int;
  dst : int;
  holding : float;
  u : float;
}

type t = {
  times : float array;
  srcs : int array;
  dsts : int array;
  holdings : float array;
  us : float array;
  ends : float array;
  order : int array;
  classes : int array;
  bandwidths : int array;
  duration : float;
  matrix : Matrix.t;
}

let check_duration caller duration =
  if duration <= 0. || not (Float.is_finite duration) then
    invalid_arg (caller ^ ": duration not positive and finite")

(* The call indices sorted by [ends], ties by index.  A stable counting
   sort into one bucket per call, by the call's place in [lo, hi], then
   one insertion sort: the bucket map is monotone, so no call moves past
   another bucket and the insertions stay inside buckets of about one
   call each.  Where the ends crowd into a few buckets (a trace merged
   with one shifted far away), the squared bucket sizes bound the
   insertion sort's work, and past [8 n] a comparison sort takes over.
   Loops rather than folds and closures, so no float is boxed. *)
let departure_order ends =
  let n = Array.length ends in
  let order = Array.make n 0 in
  let identity () = for i = 0 to n - 1 do order.(i) <- i done in
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to n - 1 do
    lo := Float.min !lo ends.(i);
    hi := Float.max !hi ends.(i)
  done;
  let lo = !lo and hi = !hi in
  if n > 1 && hi > lo then begin
    let fn = float_of_int n in
    let scale = fn /. (hi -. lo) in
    (* call [i]'s bucket; [x < fn] is false for a NaN or an infinity, so
       every end lands in [0, n) *)
    let[@inline] bucket i =
      let x = (ends.(i) -. lo) *. scale in
      if x < fn then int_of_float x else n - 1
    in
    let start = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      let b = bucket i + 1 in
      start.(b) <- start.(b) + 1
    done;
    let work = ref 0 in
    for b = 1 to n do
      work := !work + (start.(b) * start.(b));
      start.(b) <- start.(b) + start.(b - 1)
    done;
    if !work > 8 * n then begin
      identity ();
      Array.stable_sort (fun a b -> Float.compare ends.(a) ends.(b)) order
    end
    else begin
      for i = 0 to n - 1 do
        let b = bucket i in
        order.(start.(b)) <- i;
        start.(b) <- start.(b) + 1
      done;
      for p = 1 to n - 1 do
        let j = order.(p) in
        let e = ends.(j) in
        let q = ref p in
        while !q > 0 && ends.(order.(!q - 1)) > e do
          order.(!q) <- order.(!q - 1);
          decr q
        done;
        order.(!q) <- j
      done
    end
  end
  else identity ();
  order

(* the departure deadline [time + holding], computed straight into its
   float array (never boxed), and the departure order over it *)
let with_ends ~duration ~matrix ~bandwidths ~times ~srcs ~dsts ~holdings ~us
    ~classes =
  let n = Array.length times in
  let ends = Array.make n 0. in
  for i = 0 to n - 1 do
    let e = times.(i) +. holdings.(i) in
    (* [e -. e = 0.] iff [e] is finite *)
    if not (e -. e = 0.) then invalid_arg "Trace: a departure time overflows";
    ends.(i) <- e
  done;
  { times; srcs; dsts; holdings; us; ends; order = departure_order ends;
    classes; bandwidths; duration; matrix }

(* columns sized for at most this many calls up front; a larger trace
   grows them by doubling *)
let max_initial_calls = 1 lsl 22

(* [Rng.uniform] and [Rng.exponential]'s arithmetic on one [Rng.bits53]
   draw.  Inlined, so their floats never cross a call. *)
let[@inline] uniform rng = float_of_int (Rng.bits53 rng) *. 0x1.p-53

let[@inline] exponential rng rate = -.log (1. -. uniform rng) /. rate

(* One Poisson generator for every trace: the (class, pair) streams are
   flattened, class by class in row-major pair order, into one
   inverse-cdf table over positive demands.  Per call it draws the
   stream, the holding time, the routing variate and the next gap, in
   that order, straight into the columns, with the inlined arithmetic
   above: a trace is bit for bit what those [Rng] entry points would
   draw, and the loop allocates nothing.  The columns are sized for the
   expected call count plus eight standard deviations, so they almost
   never grow. *)
let generate_classes ~rng ~duration ~bandwidths ~mean_holdings demands =
  check_duration "Trace.generate" duration;
  let nc = Array.length demands in
  if nc = 0 then invalid_arg "Trace.generate: no call classes";
  if Array.length bandwidths <> nc || Array.length mean_holdings <> nc then
    invalid_arg "Trace.generate: class arrays differ in length";
  if Array.exists (fun m -> Matrix.nodes m <> Matrix.nodes demands.(0)) demands
  then invalid_arg "Trace.generate: class matrices differ in size";
  Array.iter
    (fun b -> if b < 1 then invalid_arg "Trace.generate: bandwidth < 1")
    bandwidths;
  (* the inline draws skip [Rng.exponential]'s rate check: a mean
     holding time so small that its rate overflows would hold every call
     for zero time *)
  let rates =
    Array.map
      (fun h ->
        if h <= 0. || not (Float.is_finite h && Float.is_finite (1. /. h))
        then
          invalid_arg
            "Trace.generate: mean_holding or its rate not positive and finite";
        1. /. h)
      mean_holdings
  in
  let streams = ref [] in
  Array.iteri
    (fun c m ->
      Matrix.iter_demands m (fun i j d -> streams := (c, i, j, d) :: !streams))
    demands;
  let streams = Array.of_list (List.rev !streams) in
  let ns = Array.length streams in
  if ns = 0 then invalid_arg "Trace.generate: empty traffic matrix";
  let s_class = Array.map (fun (c, _, _, _) -> c) streams in
  let s_src = Array.map (fun (_, i, _, _) -> i) streams in
  let s_dst = Array.map (fun (_, _, j, _) -> j) streams in
  let cumulative = Array.make ns 0. in
  let acc = ref 0. in
  Array.iteri
    (fun k (_, _, _, d) ->
      acc := !acc +. d;
      cumulative.(k) <- !acc)
    streams;
  let total = !acc in
  (* an infinite total rate would draw zero gaps forever *)
  if not (Float.is_finite total) then
    invalid_arg "Trace.generate: total demand not finite";
  let expected = total *. duration in
  let cap =
    ref
      (int_of_float
         (Float.min (expected +. (8. *. sqrt expected))
            (float_of_int max_initial_calls))
      + 16)
  in
  let times = ref (Array.make !cap 0.) in
  let holdings = ref (Array.make !cap 0.) in
  let us = ref (Array.make !cap 0.) in
  let srcs = ref (Array.make !cap 0) in
  let dsts = ref (Array.make !cap 0) in
  let classes = ref (Array.make !cap 0) in
  let grow () =
    let cap' = 2 * !cap in
    let extend mk a = let b = mk cap' in Array.blit a 0 b 0 !cap; b in
    times := extend (fun c -> Array.make c 0.) !times;
    holdings := extend (fun c -> Array.make c 0.) !holdings;
    us := extend (fun c -> Array.make c 0.) !us;
    srcs := extend (fun c -> Array.make c 0) !srcs;
    dsts := extend (fun c -> Array.make c 0) !dsts;
    classes := extend (fun c -> Array.make c 0) !classes;
    cap := cap'
  in
  let n = ref 0 in
  let t = ref (exponential rng total) in
  while !t < duration do
    let x = uniform rng *. total in
    (* the stream: the smallest k with cumulative.(k) > x, or the last
       one.  It lies in [base, base + len); each step halves [len] and
       [Bool.to_int] picks the half without a branch, which would
       mispredict at every other step *)
    let base = ref 0 and len = ref ns in
    while !len > 1 do
      let half = !len / 2 in
      base := !base + (half * Bool.to_int (cumulative.(!base + half - 1) <= x));
      len := !len - half
    done;
    let k = !base in
    let c = s_class.(k) in
    let holding = exponential rng rates.(c) in
    let u = uniform rng in
    if !n = !cap then grow ();
    let i = !n in
    !times.(i) <- !t;
    !holdings.(i) <- holding;
    !us.(i) <- u;
    !srcs.(i) <- s_src.(k);
    !dsts.(i) <- s_dst.(k);
    !classes.(i) <- c;
    n := i + 1;
    t := !t +. exponential rng total
  done;
  let n = !n in
  let matrix =
    Array.fold_left Matrix.add demands.(0) (Array.sub demands 1 (nc - 1))
  in
  with_ends ~duration ~matrix ~bandwidths:(Array.copy bandwidths)
    ~times:(Array.sub !times 0 n) ~srcs:(Array.sub !srcs 0 n)
    ~dsts:(Array.sub !dsts 0 n) ~holdings:(Array.sub !holdings 0 n)
    ~us:(Array.sub !us 0 n) ~classes:(Array.sub !classes 0 n)

let generate ?(mean_holding = 1.) ~rng ~duration matrix =
  generate_classes ~rng ~duration ~bandwidths:[| 1 |]
    ~mean_holdings:[| mean_holding |] [| matrix |]

let of_class_calls ~matrix ~duration ~bandwidths calls =
  check_duration "Trace.of_calls" duration;
  if Array.length bandwidths = 0 || Array.exists (fun b -> b < 1) bandwidths
  then invalid_arg "Trace.of_calls: bandwidths must be >= 1";
  let n = Matrix.nodes matrix in
  let check prev (cls, c) =
    if c.time < prev then invalid_arg "Trace.of_calls: calls not sorted";
    if c.time < 0. || c.time >= duration then
      invalid_arg "Trace.of_calls: call outside [0, duration)";
    if c.holding <= 0. || not (Float.is_finite c.holding) then
      invalid_arg "Trace.of_calls: bad holding time";
    if c.u < 0. || c.u >= 1. then invalid_arg "Trace.of_calls: u outside [0,1)";
    if c.src < 0 || c.src >= n || c.dst < 0 || c.dst >= n || c.src = c.dst
    then invalid_arg "Trace.of_calls: bad endpoints";
    if cls < 0 || cls >= Array.length bandwidths then
      invalid_arg "Trace.of_calls: class index out of range";
    c.time
  in
  let (_ : float) = List.fold_left check 0. calls in
  let calls = Array.of_list calls in
  let col f = Array.map (fun (_, c) -> f c) calls in
  let fcol f =
    let a = Array.make (Array.length calls) 0. in
    Array.iteri (fun i (_, c) -> a.(i) <- f c) calls;
    a
  in
  with_ends ~duration ~matrix ~bandwidths:(Array.copy bandwidths)
    ~times:(fcol (fun c -> c.time)) ~srcs:(col (fun c -> c.src))
    ~dsts:(col (fun c -> c.dst)) ~holdings:(fcol (fun c -> c.holding))
    ~us:(fcol (fun c -> c.u)) ~classes:(Array.map fst calls)

let of_calls ~matrix ~duration calls =
  of_class_calls ~matrix ~duration ~bandwidths:[| 1 |]
    (List.map (fun c -> (0, c)) calls)

let shift t dt =
  if dt < 0. || not (Float.is_finite dt) then
    invalid_arg "Trace.shift: negative shift";
  let times = Array.map (fun x -> x +. dt) t.times in
  with_ends ~duration:(t.duration +. dt) ~matrix:t.matrix
    ~bandwidths:t.bandwidths ~times ~srcs:t.srcs ~dsts:t.dsts
    ~holdings:t.holdings ~us:t.us ~classes:t.classes

let merge a b =
  if Matrix.nodes a.matrix <> Matrix.nodes b.matrix then
    invalid_arg "Trace.merge: node count mismatch";
  if a.bandwidths <> b.bandwidths then
    invalid_arg "Trace.merge: class bandwidths differ";
  let na = Array.length a.times and nb = Array.length b.times in
  (* [from.(k)] is the merged call's source: [i >= 0] is [a]'s call [i],
     [-j - 1] is [b]'s call [j] *)
  let from = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to na + nb - 1 do
    if !j >= nb || (!i < na && a.times.(!i) <= b.times.(!j)) then begin
      from.(k) <- !i;
      incr i
    end
    else begin
      from.(k) <- - !j - 1;
      incr j
    end
  done;
  let pick ca cb =
    Array.map (fun s -> if s >= 0 then ca.(s) else cb.(-s - 1)) from
  in
  let fpick ca cb =
    let out = Array.make (na + nb) 0. in
    Array.iteri
      (fun k s -> out.(k) <- (if s >= 0 then ca.(s) else cb.(-s - 1)))
      from;
    out
  in
  with_ends
    ~duration:(Float.max a.duration b.duration)
    ~matrix:(Matrix.add a.matrix b.matrix) ~bandwidths:a.bandwidths
    ~times:(fpick a.times b.times) ~srcs:(pick a.srcs b.srcs)
    ~dsts:(pick a.dsts b.dsts) ~holdings:(fpick a.holdings b.holdings)
    ~us:(fpick a.us b.us) ~classes:(pick a.classes b.classes)

let call_count t = Array.length t.times

let offered_between t lo hi =
  Array.fold_left
    (fun acc x -> if x >= lo && x < hi then acc + 1 else acc)
    0 t.times

let check_sorted t =
  let ok = ref true in
  for i = 1 to Array.length t.times - 1 do
    if t.times.(i) < t.times.(i - 1) then ok := false
  done;
  !ok
