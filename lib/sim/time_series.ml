type t = {
  window : float;
  offered_bins : int array;
  blocked_bins : int array;
}

type window = { start : float; offered : int; blocked : int }

let create ~window ~duration =
  if window <= 0. || window > duration then
    invalid_arg "Time_series.create: bad window";
  let bins = int_of_float (ceil (duration /. window)) in
  { window; offered_bins = Array.make bins 0; blocked_bins = Array.make bins 0 }

let wrap t (policy : Engine.policy) =
  let bins = Array.length t.offered_bins in
  { policy with
    Engine.decide =
      (fun ~occupancy trace i ->
        let outcome = policy.Engine.decide ~occupancy trace i in
        let bin =
          Stdlib.min (bins - 1)
            (int_of_float (trace.Trace.times.(i) /. t.window))
        in
        if bin >= 0 then begin
          t.offered_bins.(bin) <- t.offered_bins.(bin) + 1;
          match outcome with
          | Engine.Lost -> t.blocked_bins.(bin) <- t.blocked_bins.(bin) + 1
          | Engine.Routed _ -> ()
        end;
        outcome) }

let windows t =
  Array.to_list
    (Array.mapi
       (fun i o ->
         { start = float_of_int i *. t.window;
           offered = o;
           blocked = t.blocked_bins.(i) })
       t.offered_bins)

let blocking_series t =
  List.map
    (fun w ->
      ( w.start,
        if w.offered = 0 then 0.
        else float_of_int w.blocked /. float_of_int w.offered ))
    (windows t)

let peak_blocking t =
  List.fold_left (fun acc (_, b) -> Float.max acc b) 0. (blocking_series t)
