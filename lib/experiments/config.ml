type t = {
  seeds : int list;
  duration : float;
  warmup : float;
}

let seeds_upto n = List.init n (fun i -> 1000 + i)

let paper = { seeds = seeds_upto 10; duration = 110.; warmup = 10. }
let quick = { seeds = seeds_upto 3; duration = 50.; warmup = 5. }

let of_env () =
  let truthy = function None | Some "" | Some "0" -> false | Some _ -> true in
  let base = if truthy (Sys.getenv_opt "ARNET_QUICK") then quick else paper in
  match Sys.getenv_opt "ARNET_SEEDS" with
  | None -> base
  | Some s ->
    (match int_of_string_opt s with
    | Some n when n >= 1 -> { base with seeds = seeds_upto n }
    | _ -> base)

let describe t =
  Printf.sprintf "%d seeds, warm-up %g, measurement window %g"
    (List.length t.seeds) t.warmup (t.duration -. t.warmup)
