(* Slot-indexed binary heap.  [times] and [slots] are in heap order and
   [data] is indexed by slot: a payload is stored once on push and
   nulled once on pop, so each event costs two write barriers and
   sifting moves only unboxed floats and ints.  Free slots sit past the
   heap, in [slots.(size) .. slots.(hwm - 1)]: a pop parks the root's
   slot in the vacated last position, and a push reuses [slots.(size)]
   or takes the fresh slot [hwm].  Sifts move a hole but keep the swap heap's
   comparisons (strict [<], the left child on a tie), so every pop, ties
   included, returns what a swap heap would.

   [data] is [Obj.t] so a freed slot can hold a null (the [()]
   immediate).  Without flambda a [float] argument crosses a call boxed,
   so [push_at] and [next_due] take a [float array] and an index, and the
   sifts read times into locals. *)

type 'a t = {
  mutable times : float array;
  mutable slots : int array;
  mutable data : Obj.t array;
  mutable size : int;
  mutable hwm : int;  (* slots ever handed out since the last [clear] *)
}

let nil = Obj.repr ()

let create () =
  { times = [||]; slots = [||]; data = [||]; size = 0; hwm = 0 }
let length h = h.size
let is_empty h = h.size = 0

let clear h =
  Array.fill h.data 0 h.hwm nil;
  h.size <- 0;
  h.hwm <- 0

(* [size <= hwm <= capacity]: a fresh slot is taken only when [size =
   hwm], so growing when [size] reaches capacity covers all three arrays *)
let ensure_capacity h =
  if h.size = Array.length h.times then begin
    let cap = Stdlib.max 16 (2 * h.size) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 h.size;
      b
    in
    h.times <- grow h.times 0.;
    h.slots <- grow h.slots 0;
    h.data <- grow h.data nil
  end

(* inserts [x] with the time the caller stored at [times.(size)] *)
let insert h x =
  let times = h.times and slots = h.slots in
  let n = h.size in
  let t = times.(n) in
  let s = if n < h.hwm then slots.(n) else n in
  if n = h.hwm then h.hwm <- n + 1;
  h.data.(s) <- Obj.repr x;
  h.size <- n + 1;
  let i = ref n and sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if t < times.(p) then begin
      times.(!i) <- times.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else sifting := false
  done;
  times.(!i) <- t;
  slots.(!i) <- s

let push h ~time x =
  if not (Float.is_finite time) then invalid_arg "Event_queue.push: bad time";
  ensure_capacity h;
  h.times.(h.size) <- time;
  insert h x

let push_at h ~times i x =
  let time = times.(i) in
  (* [x -. x = 0.] iff x is finite; an inline check so the float is
     never passed (boxed) to a predicate *)
  if not (time -. time = 0.) then invalid_arg "Event_queue.push_at: bad time";
  ensure_capacity h;
  h.times.(h.size) <- time;
  insert h x

let peek_time h = if h.size = 0 then None else Some h.times.(0)

let next_due h ~deadlines i = h.size > 0 && h.times.(0) <= deadlines.(i)

let pop_payload h =
  if h.size = 0 then invalid_arg "Event_queue.pop_payload: empty queue";
  let times = h.times and slots = h.slots in
  let root = slots.(0) in
  let x = h.data.(root) in
  h.data.(root) <- nil;
  let n = h.size - 1 in
  h.size <- n;
  let t = times.(n) and s = slots.(n) in
  slots.(n) <- root;
  (* [Bool.to_int] keeps the child choice branch-free (a branch would
     mispredict at half the levels).  A lone left child needs no test:
     [times.(n)] still holds [t], so choosing [n] means [t] fits here. *)
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l < n then l + Bool.to_int (times.(l + 1) < times.(l)) else l in
    if c < n && times.(c) < t then begin
      times.(!i) <- times.(c);
      slots.(!i) <- slots.(c);
      i := c
    end
    else sifting := false
  done;
  times.(!i) <- t;
  slots.(!i) <- s;
  Obj.obj x

let pop h =
  if h.size = 0 then None
  else
    let t = h.times.(0) in
    Some (t, pop_payload h)

let pop_until h ~time ~f =
  while h.size > 0 && h.times.(0) <= time do
    let t = h.times.(0) in
    f t (pop_payload h)
  done
