open Arnet_topology
open Arnet_paths
open Arnet_erlang
open Arnet_traffic
open Arnet_sim

let capacities_of routes =
  let g = Route_table.graph routes in
  Array.map (fun (l : Link.t) -> l.capacity) (Graph.links g)

let single_path ?choice ?observer routes =
  let admission = Admission.unprotected ~capacities:(capacities_of routes) in
  Controller.compile ?observer ?choice ~name:"single-path" ~routes
    ~admission ~allow_alternates:false ()

let uncontrolled ?observer routes =
  let admission = Admission.unprotected ~capacities:(capacities_of routes) in
  Controller.compile ?observer ~name:"uncontrolled" ~routes
    ~admission ~allow_alternates:true ()

let controlled ?choice ?observer ~reserves routes =
  let admission = Admission.make ~capacities:(capacities_of routes) ~reserves in
  Controller.compile ?observer ?choice ~name:"controlled" ~routes
    ~admission ~allow_alternates:true ()

let protected ~reserves routes =
  let admission = Admission.make ~capacities:(capacities_of routes) ~reserves in
  Controller.compile ~name:"protected" ~routes ~admission
    ~allow_alternates:true ()

let controlled_auto ?observer ?h ~matrix routes =
  let h = match h with None -> Route_table.h routes | Some h -> h in
  let reserves = Protection.levels routes matrix ~h in
  controlled ?observer ~reserves routes

let controlled_per_link_h ~matrix routes =
  let reserves = Protection.levels_per_link_h routes matrix in
  let admission = Admission.make ~capacities:(capacities_of routes) ~reserves in
  Controller.compile ~name:"controlled-per-link-h" ~routes ~admission
    ~allow_alternates:true ()

(* the custom-decide policies below compile like [Controller.compile]:
   per-pair plans built once, indexed by the call's endpoints, and
   decided by int and unboxed-float loops that allocate nothing *)
let plan_of plans n (trace : Trace.t) i =
  plans.((trace.Trace.srcs.(i) * n) + trace.Trace.dsts.(i))

let node_count routes = Graph.node_count (Route_table.graph routes)

let controlled_length_aware ~matrix routes =
  let capacities = capacities_of routes in
  let admission = Admission.unprotected ~capacities in
  let loads = Loads.primary_link_loads routes matrix in
  let max_h = Stdlib.max 1 (Route_table.h routes) in
  (* thresholds.(k * max_h + l - 1): highest admissible occupancy
     (exclusive) for an l-hop alternate on link k *)
  let thresholds =
    Array.init (Array.length capacities * max_h) (fun j ->
        let k = j / max_h and l = (j mod max_h) + 1 in
        let c = capacities.(k) in
        c - Protection.link_level ~offered:loads.(k) ~capacity:c ~h:l)
  in
  (* every link of [ids] below its threshold for length [slot + 1] *)
  let rec below occupancy ids slot i =
    i >= Array.length ids
    || begin
         let k = Array.unsafe_get ids i in
         occupancy.(k) < thresholds.((k * max_h) + slot)
         && below occupancy ids slot (i + 1)
       end
  in
  (* the first alternate, in attempt order, that every link admits at
     its own length's threshold *)
  let rec first_admitted occupancy alts j =
    if j >= Array.length alts then -1
    else begin
      let p = Array.unsafe_get alts j in
      let l = Path.hops p in
      if l <= max_h && below occupancy p.Path.link_ids (l - 1) 0 then j
      else first_admitted occupancy alts (j + 1)
    end
  in
  let n = node_count routes in
  let plans = Controller.plans routes in
  let decide ~occupancy trace i =
    let plan = plan_of plans n trace i in
    match plan.Controller.plan_primary with
    | None -> Engine.Lost
    | Some p ->
      if Admission.path_admits_primary admission ~occupancy p then
        plan.Controller.routed_primary
      else begin
        let j = first_admitted occupancy plan.Controller.alt_paths 0 in
        if j < 0 then Engine.Lost else plan.Controller.alt_outcomes.(j)
      end
  in
  let primary trace i = (plan_of plans n trace i).Controller.plan_primary in
  { Engine.name = "controlled-length-aware"; decide; primary }

let controlled_adaptive ?h ?window ?smoothing ?(refresh = 10.) ?initial_loads
    routes =
  if not (refresh > 0.) then
    invalid_arg "Scheme.controlled_adaptive: bad refresh";
  let h = match h with None -> Route_table.h routes | Some h -> h in
  let capacities = capacities_of routes in
  let m = Array.length capacities in
  let estimators =
    Array.init m (fun k ->
        let initial =
          match initial_loads with None -> 0. | Some l -> l.(k)
        in
        Estimator.create ?window ?smoothing ~initial ())
  in
  let reserves =
    match initial_loads with
    | None -> Array.make m 0
    | Some loads -> Protection.levels_of_loads ~capacities ~loads ~h
  in
  let next_refresh = ref refresh in
  let admission = ref (Admission.make ~capacities ~reserves) in
  let n = node_count routes in
  let plans = Controller.plans routes in
  let decide ~occupancy (trace : Trace.t) i =
    let now = trace.Trace.times.(i) in
    let plan = plan_of plans n trace i in
    (* every primary set-up packet is seen by every link on the primary
       path, whether or not the call completes *)
    (match plan.Controller.plan_primary with
    | Some primary ->
      let ids = primary.Path.link_ids in
      for j = 0 to Array.length ids - 1 do
        Estimator.observe estimators.(ids.(j)) ~now
      done
    | None -> ());
    if now >= !next_refresh then begin
      Array.iteri
        (fun k e ->
          let offered = Estimator.estimate e ~now in
          reserves.(k) <-
            Protection.link_level ~offered ~capacity:capacities.(k) ~h)
        estimators;
      admission := Admission.make ~capacities ~reserves;
      next_refresh := !next_refresh +. refresh
    end;
    Controller.route !admission ~allow_alternates:true ~occupancy
      ~bandwidth:trace.Trace.bandwidths.(trace.Trace.classes.(i))
      plan
  in
  let primary trace i = (plan_of plans n trace i).Controller.plan_primary in
  { Engine.name = "controlled-adaptive"; decide; primary }

(* an Ott-Krishnan plan: the pair's paths in [Route_table.all_paths]
   order (the primary merged in by length when it is not a candidate),
   their link ids laid end to end with path j ending before
   [priced_ends.(j)], their outcomes, and the prebuilt primary *)
type priced_plan = {
  priced_primary : Path.t option;
  priced_links : int array;
  priced_ends : int array;
  priced_outcomes : Engine.outcome array;
}

let unpriced =
  { priced_primary = None;
    priced_links = [||];
    priced_ends = [||];
    priced_outcomes = [||] }

let priced_plan routes ~src ~dst =
  let paths = Array.of_list (Route_table.all_paths routes ~src ~dst) in
  (* the primary is the path of its own outcome, so the engine tells a
     primary admission by physical equality *)
  let primary =
    let p = Route_table.primary routes ~src ~dst in
    Option.value ~default:p (Array.find_opt (Path.equal p) paths)
  in
  let ends = Array.make (Array.length paths) 0 in
  let total = ref 0 in
  Array.iteri
    (fun j p ->
      total := !total + Path.hops p;
      ends.(j) <- !total)
    paths;
  { priced_primary = Some primary;
    priced_links =
      Array.concat (List.map (fun p -> p.Path.link_ids) (Array.to_list paths));
    priced_ends = ends;
    priced_outcomes = Array.map (fun p -> Engine.Routed p) paths }

let ott_krishnan ?(revenue = 1.) ?(reduced_load = false) ~matrix routes =
  if not (revenue > 0.) then invalid_arg "Scheme.ott_krishnan: revenue <= 0";
  let capacities = capacities_of routes in
  let loads =
    if not reduced_load then Loads.primary_link_loads routes matrix
    else begin
      let pair_routes = Loads.offered_to_pair_paths routes matrix in
      let blocking = Reduced_load.solve ~capacities pair_routes in
      Reduced_load.reduced_link_loads ~capacities ~blocking pair_routes
    end
  in
  (* prices.(k).(s): the implied cost of a circuit on link k at
     occupancy s, for s = 0 .. C; infinity at C.  A link with no primary
     traffic to displace is free below C, and a zero-capacity link is
     always full *)
  let prices =
    Array.mapi
      (fun k c ->
        if loads.(k) <= 0. || c = 0 then
          Array.init (c + 1) (fun s -> if s < c then 0. else infinity)
        else
          Shadow_price.row (Shadow_price.make ~offered:loads.(k) ~capacity:c))
      capacities
  in
  let n = node_count routes and m = Array.length prices in
  let plans =
    Controller.pair_table routes ~unroutable:unpriced (priced_plan routes)
  in
  let decide ~occupancy trace i =
    (* every link id in the plans is below [m], so with this one check
       per call the per-link reads below need no bounds checks *)
    if Array.length occupancy < m then
      invalid_arg "Scheme.ott_krishnan: occupancy shorter than the links";
    let plan = plan_of plans n trace i in
    let links = plan.priced_links and ends = plan.priced_ends in
    (* strict improvement over paths sorted by length keeps the shortest
       among equal prices, and an infinite cost never wins.  Prices are
       >= 0, so a path's sum can stop once it reaches the best cost *)
    let best = ref (-1) and best_cost = ref infinity and start = ref 0 in
    for j = 0 to Array.length ends - 1 do
      let stop = Array.unsafe_get ends j in
      let cost = ref 0. and l = ref !start in
      start := stop;
      while !l < stop && !cost < !best_cost do
        let k = Array.unsafe_get links !l in
        let row = Array.unsafe_get prices k
        and s = Array.unsafe_get occupancy k in
        cost := !cost +. if s < Array.length row then row.(s) else infinity;
        incr l
      done;
      if !cost < !best_cost then begin
        best := j;
        best_cost := !cost
      end
    done;
    if !best >= 0 && !best_cost <= revenue then plan.priced_outcomes.(!best)
    else Engine.Lost
  in
  { Engine.name = (if reduced_load then "ott-krishnan-reduced" else "ott-krishnan");
    decide;
    primary = (fun trace i -> (plan_of plans n trace i).priced_primary) }

let least_busy ?reserves routes =
  let capacities = capacities_of routes in
  let admission =
    match reserves with
    | None -> Admission.unprotected ~capacities
    | Some reserves -> Admission.make ~capacities ~reserves
  in
  (* the fewest free circuits, C - occupancy, over a path's links *)
  let rec free occupancy ids i acc =
    if i >= Array.length ids then acc
    else begin
      let k = Array.unsafe_get ids i in
      let f = capacities.(k) - occupancy.(k) in
      free occupancy ids (i + 1) (if f < acc then f else acc)
    end
  in
  let n = node_count routes in
  let plans = Controller.plans routes in
  let decide ~occupancy trace i =
    let plan = plan_of plans n trace i in
    match plan.Controller.plan_primary with
    | None -> Engine.Lost
    | Some p ->
      if Admission.path_admits_primary admission ~occupancy p then
        plan.Controller.routed_primary
      else begin
        (* the first admissible alternate fixes the length; among the
           admissible ones of that length (alternates run in increasing
           hops) the first with the most free circuits wins *)
        let alts = plan.Controller.alt_paths in
        let best = ref (-1) and best_free = ref 0 and hops = ref 0 in
        let j = ref 0 in
        while
          !j < Array.length alts
          && (!best < 0 || Path.hops (Array.unsafe_get alts !j) = !hops)
        do
          let q = Array.unsafe_get alts !j in
          if Admission.path_admits_alternate admission ~occupancy q then begin
            let f = free occupancy q.Path.link_ids 0 max_int in
            if !best < 0 || f > !best_free then begin
              best := !j;
              best_free := f;
              hops := Path.hops q
            end
          end;
          incr j
        done;
        if !best < 0 then Engine.Lost
        else plan.Controller.alt_outcomes.(!best)
      end
  in
  let primary trace i = (plan_of plans n trace i).Controller.plan_primary in
  { Engine.name = "least-busy"; decide; primary }

let name_of (p : Engine.policy) = p.Engine.name
