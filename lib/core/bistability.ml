open Arnet_erlang

type fixed_point = {
  direct_blocking : float;
  overflow_blocking : float;
  overflow_rate : float;
  network_blocking : float;
  iterations : int;
}

(* one application of the mean-field map: given the current blocking
   estimates, the implied overflow rate, then the exact birth-death
   solution of a single protected link under (direct, overflow) *)
let link_blocking ~offered ~capacity ~reserve ~overflow_rate =
  let chain =
    Birth_death.protected_link ~primary:offered
      ~overflow:(fun _ -> Float.max overflow_rate 1e-12)
      ~capacity ~reserve
  in
  let pi = Birth_death.stationary chain in
  let direct = pi.(capacity) in
  let overflow = ref 0. in
  for s = capacity - reserve to capacity do
    overflow := !overflow +. pi.(s)
  done;
  (direct, !overflow)

let fixed_point_from ?(tolerance = 1e-10) ?(max_iterations = 10_000)
    ?(attempts = 10) ~offered ~capacity ~reserve start =
  if attempts < 1 then invalid_arg "Bistability.fixed_point_from: attempts < 1";
  if offered <= 0. || not (Float.is_finite offered) then
    invalid_arg "Bistability.fixed_point_from: bad offered load";
  if capacity < 1 then invalid_arg "Bistability.fixed_point_from: capacity < 1";
  if reserve < 0 || reserve >= capacity then
    invalid_arg "Bistability.fixed_point_from: reserve outside [0, capacity)";
  let b_d = ref (match start with `Cold -> 0. | `Hot -> 1.) in
  let b_o = ref !b_d in
  let expected_tries b_o =
    let p = (1. -. b_o) ** 2. in
    if p <= 1e-12 then float_of_int attempts
    else (1. -. ((1. -. p) ** float_of_int attempts)) /. p
  in
  let rec iterate n =
    if n > max_iterations then
      invalid_arg "Bistability.fixed_point_from: no convergence";
    let overflow_rate =
      2. *. offered *. !b_d *. expected_tries !b_o *. (1. -. !b_o)
    in
    let d, o = link_blocking ~offered ~capacity ~reserve ~overflow_rate in
    let delta = Float.max (Float.abs (d -. !b_d)) (Float.abs (o -. !b_o)) in
    (* damping keeps the iteration inside the basin it started in *)
    b_d := (0.5 *. !b_d) +. (0.5 *. d);
    b_o := (0.5 *. !b_o) +. (0.5 *. o);
    if delta > tolerance then iterate (n + 1) else n
  in
  let iterations = iterate 1 in
  let overflow_rate =
    2. *. offered *. !b_d *. expected_tries !b_o *. (1. -. !b_o)
  in
  (* a call is lost iff blocked on its direct link and all its alternate
     tries fail (mean-field independence) *)
  let p = (1. -. !b_o) ** 2. in
  let all_fail = (1. -. p) ** float_of_int attempts in
  { direct_blocking = !b_d;
    overflow_blocking = !b_o;
    overflow_rate;
    network_blocking = !b_d *. all_fail;
    iterations }

let is_bistable ?(gap = 0.01) ?attempts ~offered ~capacity ~reserve () =
  let cold = fixed_point_from ?attempts ~offered ~capacity ~reserve `Cold in
  let hot = fixed_point_from ?attempts ~offered ~capacity ~reserve `Hot in
  Float.abs (hot.network_blocking -. cold.network_blocking) > gap

let critical_load ?lo ?hi ?(precision = 0.05) ?attempts ~capacity ~reserve () =
  if precision <= 0. then invalid_arg "Bistability.critical_load: precision";
  let lo = match lo with Some x -> x | None -> 0.5 *. float_of_int capacity in
  let hi = match hi with Some x -> x | None -> 1.2 *. float_of_int capacity in
  if lo >= hi then invalid_arg "Bistability.critical_load: empty range";
  (* bistability holds on a band, not a half-line: walk the range and
     refine around the first bistable grid point *)
  let step = Float.max precision ((hi -. lo) /. 200.) in
  let rec scan a =
    if a > hi then None
    else if is_bistable ?attempts ~offered:a ~capacity ~reserve () then begin
      let left = ref (Float.max lo (a -. step)) and right = ref a in
      while !right -. !left > precision do
        let mid = (!left +. !right) /. 2. in
        if is_bistable ?attempts ~offered:mid ~capacity ~reserve () then
          right := mid
        else left := mid
      done;
      Some !right
    end
    else scan (a +. step)
  in
  scan lo
