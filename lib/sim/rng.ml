type t = { seed : int; state : Random.State.t }

let make_state seed =
  Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5bd1e995 |]

let create ~seed = { seed; state = make_state seed }

let substream t name =
  let h = Hashtbl.hash (t.seed, name) in
  { seed = h; state = make_state h }

(* [Random.State.float]'s draw, before its scaling: the top 53 bits of
   one 64-bit output, redrawn on zero.  An int never boxes. *)
let rec bits53 t =
  let n =
    Int64.to_int (Int64.shift_right_logical (Random.State.bits64 t.state) 11)
  in
  if n <> 0 then n else bits53 t

let float t bound = Random.State.float t.state bound
let uniform t = Random.State.float t.state 1.
let int t bound = Random.State.int t.state bound

let exponential t ~rate =
  if rate <= 0. || not (Float.is_finite rate) then
    invalid_arg "Rng.exponential: rate must be positive";
  let u = 1. -. uniform t (* in (0, 1] *) in
  -.log u /. rate

let poisson t ~mean =
  if mean <= 0. || mean > 700. then invalid_arg "Rng.poisson: bad mean";
  let l = exp (-.mean) in
  let rec draw k p =
    let p = p *. uniform t in
    if p <= l then k else draw (k + 1) p
  in
  draw 0 1.
