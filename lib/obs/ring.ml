type 'a t = {
  buf : 'a option array;
  mutable next : int;  (* slot for the next write *)
  mutable stored : int;  (* <= capacity *)
  mutable seen : int;  (* total items ever pushed *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity None; next = 0; stored = 0; seen = 0 }

let capacity t = Array.length t.buf
let length t = t.stored
let seen t = t.seen
let dropped t = t.seen - t.stored

let push t x =
  t.buf.(t.next) <- Some x;
  t.next <- (t.next + 1) mod Array.length t.buf;
  if t.stored < Array.length t.buf then t.stored <- t.stored + 1;
  t.seen <- t.seen + 1

let contents t =
  (* oldest first: when full the oldest lives at [next] *)
  let cap = Array.length t.buf in
  let start = if t.stored < cap then 0 else t.next in
  List.init t.stored (fun i ->
      match t.buf.((start + i) mod cap) with
      | Some x -> x
      | None -> assert false)

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.next <- 0;
  t.stored <- 0;
  t.seen <- 0

let sink t = Sink.make (push t)
