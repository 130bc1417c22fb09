type class_load = { offered : float; bandwidth : int }

let validate ~capacity classes =
  if capacity < 1 then invalid_arg "Kaufman_roberts.validate: capacity < 1";
  if classes = [] then invalid_arg "Kaufman_roberts.validate: no classes";
  List.iter
    (fun { offered; bandwidth } ->
      if offered <= 0. || not (Float.is_finite offered) then
        invalid_arg "Kaufman_roberts.validate: bad offered load";
      if bandwidth < 1 || bandwidth > capacity then
        invalid_arg "Kaufman_roberts.validate: bandwidth out of range")
    classes

let distribution ~capacity classes =
  validate ~capacity classes;
  (* unnormalized recursion with running renormalization for stability *)
  let q = Array.make (capacity + 1) 0. in
  q.(0) <- 1.;
  for j = 1 to capacity do
    let acc = ref 0. in
    List.iter
      (fun { offered; bandwidth } ->
        if j >= bandwidth then
          acc := !acc +. (offered *. float_of_int bandwidth *. q.(j - bandwidth)))
      classes;
    q.(j) <- !acc /. float_of_int j;
    if q.(j) > 1e250 then begin
      (* rescale everything to avoid overflow at large loads *)
      let scale = 1. /. q.(j) in
      for i = 0 to j do
        q.(i) <- q.(i) *. scale
      done
    end
  done;
  let z = Array.fold_left ( +. ) 0. q in
  Array.map (fun x -> x /. z) q

let class_blocking ~capacity classes =
  let q = distribution ~capacity classes in
  List.map
    (fun { bandwidth; _ } ->
      let acc = ref 0. in
      for j = capacity - bandwidth + 1 to capacity do
        acc := !acc +. q.(j)
      done;
      !acc)
    classes

let mean_occupied ~capacity classes =
  let q = distribution ~capacity classes in
  let acc = ref 0. in
  Array.iteri (fun j p -> acc := !acc +. (float_of_int j *. p)) q;
  !acc

let reservation_blocking ~capacity ~reserve classes =
  if reserve < 0 || reserve >= capacity then
    invalid_arg "Kaufman_roberts.reservation_blocking: reserve out of range";
  class_blocking ~capacity:(capacity - reserve) classes
