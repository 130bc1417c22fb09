type t = { offered : float; capacity : int; prices : float array }

let make ~offered ~capacity =
  if capacity < 1 then invalid_arg "Shadow_price.make: capacity < 1";
  if offered <= 0. || not (Float.is_finite offered) then
    invalid_arg "Shadow_price.make: bad offered load";
  (* p(s) = B(nu, C)/B(nu, s) = y_s / y_C, computed from the log inverse
     table so extreme parameters cannot overflow. *)
  let ly = Erlang_b.log_inverse_table ~offered ~capacity in
  let prices =
    Array.init capacity (fun s -> exp (ly.(s) -. ly.(capacity)))
  in
  { offered; capacity; prices }

let price t s =
  if s < 0 then invalid_arg "Shadow_price.price: negative state";
  if s >= t.capacity then infinity else t.prices.(s)

let capacity t = t.capacity
let offered t = t.offered

let row t =
  Array.init (t.capacity + 1) (fun s ->
      if s < t.capacity then t.prices.(s) else infinity)
