(* The three running floats (window start, moving average, last time)
   live in one float array, stored unboxed: a mutable float field of a
   mixed record would allocate a box on every write, that is on every
   observed set-up. *)
let window_start = 0
let ewma = 1
let last_time = 2

type t = {
  window : float;
  smoothing : float;
  mean_holding : float;
  running : float array;
  mutable count : int;
  mutable observations : int;
}

let create ?(window = 5.) ?(smoothing = 0.3) ?(mean_holding = 1.)
    ?(initial = 0.) () =
  if window <= 0. || not (Float.is_finite window) then
    invalid_arg "Estimator.create: bad window";
  if smoothing <= 0. || smoothing > 1. then
    invalid_arg "Estimator.create: smoothing outside (0, 1]";
  if mean_holding <= 0. then invalid_arg "Estimator.create: bad mean_holding";
  if initial < 0. then invalid_arg "Estimator.create: negative initial";
  { window;
    smoothing;
    mean_holding;
    running = [| 0.; initial; 0. |];
    count = 0;
    observations = 0 }

(* fold every window that has fully elapsed by [now] into the average *)
let roll t ~now =
  let r = t.running in
  while now >= r.(window_start) +. t.window do
    let rate = float_of_int t.count /. t.window in
    r.(ewma) <- (t.smoothing *. rate) +. ((1. -. t.smoothing) *. r.(ewma));
    t.count <- 0;
    r.(window_start) <- r.(window_start) +. t.window
  done

let observe t ~now =
  if now < t.running.(last_time) then
    invalid_arg "Estimator.observe: time ran backwards";
  t.running.(last_time) <- now;
  roll t ~now;
  t.count <- t.count + 1;
  t.observations <- t.observations + 1

let estimate t ~now =
  if now >= t.running.(last_time) then begin
    t.running.(last_time) <- now;
    roll t ~now
  end;
  t.running.(ewma) *. t.mean_holding

let observations t = t.observations
