open Arnet_topology
open Arnet_paths
open Arnet_sim

type primary_choice =
  | Table
  | Sampled of (src:int -> dst:int -> u:float -> Path.t option)

(* ------------------------------------------------------------------ *)
(* per-pair plans: the primary, its [Routed] outcome, the
   primary-excluded alternates and *their* [Routed] outcomes, built once
   per ordered O-D pair, so deciding a call is array indexing plus
   per-link occupancy compares: no list filter, no closure, no option,
   no variant allocation *)

type plan = {
  plan_primary : Path.t option;  (* prebuilt; never allocated per call *)
  routed_primary : Engine.outcome;  (* Routed primary, or Lost if none *)
  alt_paths : Path.t array;  (* attempt order, primary excluded *)
  alt_outcomes : Engine.outcome array;  (* Routed alt_paths.(i) *)
}

let unroutable =
  { plan_primary = None;
    routed_primary = Engine.Lost;
    alt_paths = [||];
    alt_outcomes = [||] }

let plan_of_paths p alts =
  { plan_primary = Some p;
    routed_primary = Engine.Routed p;
    alt_paths = alts;
    alt_outcomes = Array.map (fun q -> Engine.Routed q) alts }

let pair_table routes ~unroutable plan =
  let n = Graph.node_count (Route_table.graph routes) in
  Array.init (n * n) (fun k ->
      let src = k / n and dst = k mod n in
      if src = dst || not (Route_table.has_route routes ~src ~dst) then
        unroutable
      else plan ~src ~dst)

let plans routes =
  pair_table routes ~unroutable (fun ~src ~dst ->
      plan_of_paths
        (Route_table.primary routes ~src ~dst)
        (Route_table.alternate_array routes ~src ~dst))

(* ------------------------------------------------------------------ *)
(* the two-tier rule: the one implementation every two-tier scheme and
   the daemon decide with *)

let rec scan_alternates admission occupancy bandwidth paths outcomes i =
  if i >= Array.length paths then Engine.Lost
  else if
    Admission.path_admits admission ~occupancy ~bandwidth ~primary:false
      (Array.unsafe_get paths i)
  then Array.unsafe_get outcomes i
  else scan_alternates admission occupancy bandwidth paths outcomes (i + 1)

let route admission ~allow_alternates ~occupancy ~bandwidth plan =
  match plan.plan_primary with
  | None -> Engine.Lost
  | Some p ->
    if Admission.path_admits admission ~occupancy ~bandwidth ~primary:true p
    then plan.routed_primary
    else if not allow_alternates then Engine.Lost
    else
      scan_alternates admission occupancy bandwidth plan.alt_paths
        plan.alt_outcomes 0

let narrate admission ~allow_alternates ~occupancy ~bandwidth plan outcome f =
  (* [route] tried the alternates only past a refused primary, and
     stopped at the one it returned *)
  if allow_alternates && outcome != plan.routed_primary then begin
    let rec go i =
      if i < Array.length plan.alt_paths && plan.alt_outcomes.(i) != outcome
      then begin
        let q = plan.alt_paths.(i) in
        (match
           Admission.alternate_refusal admission ~occupancy ~bandwidth q
         with
        | Some (link, occ, threshold) -> f q ~link ~occupancy:occ ~threshold
        | None -> ());
        go (i + 1)
      end
    in
    go 0
  end

(* ------------------------------------------------------------------ *)

let compile ?observer ?(choice = Table) ~name ~routes ~admission
    ~allow_alternates () =
  let n = Graph.node_count (Route_table.graph routes) in
  let plans = plans routes in
  let table_plan (trace : Trace.t) i =
    plans.((trace.Trace.srcs.(i) * n) + trace.Trace.dsts.(i))
  in
  let primary =
    match choice with
    | Table -> fun trace i -> (table_plan trace i).plan_primary
    | Sampled f ->
      fun (trace : Trace.t) i ->
        f ~src:trace.Trace.srcs.(i) ~dst:trace.Trace.dsts.(i)
          ~u:trace.Trace.us.(i)
  in
  (* a sampled primary that is the table's decides on the pair's plan;
     any other attempts the pair's other candidates, which the table
     builds once per pair here *)
  let candidates =
    match choice with
    | Table -> [||]
    | Sampled _ ->
      pair_table routes ~unroutable:[] (fun ~src ~dst ->
          Route_table.candidates routes ~src ~dst)
  in
  let plan_of (trace : Trace.t) i =
    let plan = table_plan trace i in
    match choice with
    | Table -> plan
    | Sampled _ -> (
      match (primary trace i, plan.plan_primary) with
      | None, _ -> unroutable
      | Some p, Some q when q == p || Path.equal q p -> plan
      | Some p, _ ->
        let k = (trace.Trace.srcs.(i) * n) + trace.Trace.dsts.(i) in
        plan_of_paths p
          (Array.of_list
             (List.filter (fun q -> not (Path.equal q p)) candidates.(k))))
  in
  let decide ~occupancy (trace : Trace.t) i =
    let plan = plan_of trace i in
    let bandwidth = trace.Trace.bandwidths.(trace.Trace.classes.(i)) in
    let outcome =
      route admission ~allow_alternates ~occupancy ~bandwidth plan
    in
    (match (observer, plan.plan_primary) with
    | Some f, Some p ->
      (* narrate the decision already made *)
      let time = trace.Trace.times.(i) in
      let src = trace.Trace.srcs.(i) and dst = trace.Trace.dsts.(i) in
      f
        (Arnet_obs.Event.Primary_attempt
           { time; src; dst; hops = Path.hops p;
             admitted = outcome == plan.routed_primary });
      narrate admission ~allow_alternates ~occupancy ~bandwidth plan outcome
        (fun q ~link ~occupancy ~threshold ->
          f
            (Arnet_obs.Event.Alternate_rejected
               { time; src; dst; hops = Path.hops q; link; occupancy;
                 threshold }))
    | _ -> ());
    outcome
  in
  { Engine.name; decide; primary }
