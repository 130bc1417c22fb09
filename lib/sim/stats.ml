type t = {
  nodes : int;
  mutable offered : int;
  mutable blocked : int;
  mutable carried_primary : int;
  mutable carried_alternate : int;
  mutable alternate_hops : int;
  offered_od : int array;
  blocked_od : int array;
  class_offered : int array;
  class_blocked : int array;
  mutable offered_bandwidth : int;
  mutable blocked_bandwidth : int;
  mutable dropped : int;
  mutable failovers : int;
}

let empty ~nodes ~classes =
  if nodes < 2 then invalid_arg "Stats.empty: need >= 2 nodes";
  if classes < 1 then invalid_arg "Stats.empty: need >= 1 class";
  { nodes;
    offered = 0;
    blocked = 0;
    carried_primary = 0;
    carried_alternate = 0;
    alternate_hops = 0;
    offered_od = Array.make (nodes * nodes) 0;
    blocked_od = Array.make (nodes * nodes) 0;
    class_offered = Array.make classes 0;
    class_blocked = Array.make classes 0;
    offered_bandwidth = 0;
    blocked_bandwidth = 0;
    dropped = 0;
    failovers = 0 }

let idx t src dst =
  if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes then
    invalid_arg "Stats.idx: bad node index";
  (src * t.nodes) + dst

let record_offered t ~src ~dst ~cls ~bandwidth =
  t.offered <- t.offered + 1;
  let i = idx t src dst in
  t.offered_od.(i) <- t.offered_od.(i) + 1;
  t.class_offered.(cls) <- t.class_offered.(cls) + 1;
  t.offered_bandwidth <- t.offered_bandwidth + bandwidth

let record_blocked t ~src ~dst ~cls ~bandwidth =
  t.blocked <- t.blocked + 1;
  let i = idx t src dst in
  t.blocked_od.(i) <- t.blocked_od.(i) + 1;
  t.class_blocked.(cls) <- t.class_blocked.(cls) + 1;
  t.blocked_bandwidth <- t.blocked_bandwidth + bandwidth

let record_primary t = t.carried_primary <- t.carried_primary + 1

let record_alternate t ~hops =
  t.carried_alternate <- t.carried_alternate + 1;
  t.alternate_hops <- t.alternate_hops + hops

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let blocking t = ratio t.blocked t.offered

let class_blocking t c = ratio t.class_blocked.(c) t.class_offered.(c)

let bandwidth_blocking t = ratio t.blocked_bandwidth t.offered_bandwidth

let od_blocking t ~src ~dst =
  let i = idx t src dst in
  if t.offered_od.(i) = 0 then None
  else Some (ratio t.blocked_od.(i) t.offered_od.(i))

let alternate_fraction t =
  ratio t.carried_alternate (t.carried_primary + t.carried_alternate)

let merge a b =
  if a.nodes <> b.nodes then invalid_arg "Stats.merge: node count mismatch";
  if Array.length a.class_offered <> Array.length b.class_offered then
    invalid_arg "Stats.merge: class count mismatch";
  let add x y = Array.map2 ( + ) x y in
  { nodes = a.nodes;
    offered = a.offered + b.offered;
    blocked = a.blocked + b.blocked;
    carried_primary = a.carried_primary + b.carried_primary;
    carried_alternate = a.carried_alternate + b.carried_alternate;
    alternate_hops = a.alternate_hops + b.alternate_hops;
    offered_od = add a.offered_od b.offered_od;
    blocked_od = add a.blocked_od b.blocked_od;
    class_offered = add a.class_offered b.class_offered;
    class_blocked = add a.class_blocked b.class_blocked;
    offered_bandwidth = a.offered_bandwidth + b.offered_bandwidth;
    blocked_bandwidth = a.blocked_bandwidth + b.blocked_bandwidth;
    dropped = a.dropped + b.dropped;
    failovers = a.failovers + b.failovers }

type summary = { mean : float; std_error : float; replications : int }

let summarize values =
  let n = List.length values in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let fn = float_of_int n in
  let mean = List.fold_left ( +. ) 0. values /. fn in
  if n = 1 then { mean; std_error = 0.; replications = 1 }
  else begin
    let ss =
      List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. values
    in
    let variance = ss /. (fn -. 1.) in
    { mean; std_error = sqrt (variance /. fn); replications = n }
  end

(* two-sided 95% Student-t quantiles for df = 1..30; beyond that the
   normal 1.96 is accurate to within half a percent *)
let t_quantile_95 =
  [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
     2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
     2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042 |]

let confidence_95 s =
  if s.replications <= 1 then (s.mean, s.mean)
  else begin
    let df = s.replications - 1 in
    let t =
      if df <= Array.length t_quantile_95 then t_quantile_95.(df - 1)
      else 1.96
    in
    (s.mean -. (t *. s.std_error), s.mean +. (t *. s.std_error))
  end

let blocking_summary runs = summarize (List.map blocking runs)

type skew = {
  min_blocking : float;
  max_blocking : float;
  mean_blocking : float;
  coefficient_of_variation : float;
}

let od_skew t =
  let values = ref [] in
  for src = 0 to t.nodes - 1 do
    for dst = 0 to t.nodes - 1 do
      if src <> dst then
        match od_blocking t ~src ~dst with
        | Some b -> values := b :: !values
        | None -> ()
    done
  done;
  match !values with
  | [] -> invalid_arg "Stats.od_skew: no traffic"
  | vs ->
    let { mean; _ } = summarize vs in
    let mn = List.fold_left Float.min infinity vs in
    let mx = List.fold_left Float.max neg_infinity vs in
    let n = float_of_int (List.length vs) in
    let var = List.fold_left (fun a v -> a +. ((v -. mean) ** 2.)) 0. vs /. n in
    let cv = if mean > 0. then sqrt var /. mean else 0. in
    { min_blocking = mn;
      max_blocking = mx;
      mean_blocking = mean;
      coefficient_of_variation = cv }
