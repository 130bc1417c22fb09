open Arnet_topology
open Arnet_paths
open Arnet_erlang
open Arnet_traffic
open Arnet_sim

let capacities_of routes =
  let g = Route_table.graph routes in
  Array.map (fun (l : Link.t) -> l.capacity) (Graph.links g)

let two_tier ?observer ?domains ~name ~choice ~allow_alternates ~admission
    routes =
  match (observer, choice) with
  | None, Controller.Table ->
    (* the benchmark configuration: compiled, allocation-free decisions
       (identical outcomes to the generic path below) *)
    Controller.compile ?domains ~name ~routes ~admission ~allow_alternates ()
  | _ ->
    { Engine.name;
      decide =
        (fun ~occupancy trace i ->
          Controller.decide ?observer ~routes ~admission ~choice
            ~allow_alternates ~occupancy trace i);
      primary = Controller.primary_for routes choice }

let single_path ?(choice = Controller.Table) ?observer ?domains routes =
  let admission = Admission.unprotected ~capacities:(capacities_of routes) in
  two_tier ?observer ?domains ~name:"single-path" ~choice
    ~allow_alternates:false ~admission routes

let uncontrolled ?(choice = Controller.Table) ?observer ?domains routes =
  let admission = Admission.unprotected ~capacities:(capacities_of routes) in
  two_tier ?observer ?domains ~name:"uncontrolled" ~choice
    ~allow_alternates:true ~admission routes

let controlled ?(choice = Controller.Table) ?observer ?domains ~reserves
    routes =
  let admission = Admission.make ~capacities:(capacities_of routes) ~reserves in
  two_tier ?observer ?domains ~name:"controlled" ~choice
    ~allow_alternates:true ~admission routes

let protected ?(choice = Controller.Table) ?observer ?domains ~reserves
    routes =
  let admission = Admission.make ~capacities:(capacities_of routes) ~reserves in
  two_tier ?observer ?domains ~name:"protected" ~choice
    ~allow_alternates:true ~admission routes

let controlled_auto ?(choice = Controller.Table) ?observer ?domains ?h
    ~matrix routes =
  let h = match h with None -> Route_table.h routes | Some h -> h in
  let reserves = Protection.levels routes matrix ~h in
  controlled ~choice ?observer ?domains ~reserves routes

let controlled_per_link_h ?(choice = Controller.Table) ?observer ~matrix
    routes =
  let reserves = Protection.levels_per_link_h routes matrix in
  let admission = Admission.make ~capacities:(capacities_of routes) ~reserves in
  two_tier ?observer ~name:"controlled-per-link-h" ~choice
    ~allow_alternates:true ~admission routes

let controlled_length_aware ?(choice = Controller.Table) ~matrix routes =
  let capacities = capacities_of routes in
  let loads = Loads.primary_link_loads routes matrix in
  let max_h = Stdlib.max 1 (Route_table.h routes) in
  (* thresholds.(k).(l-1): highest admissible occupancy (exclusive) for
     an l-hop alternate on link k *)
  let thresholds =
    Array.mapi
      (fun k c ->
        Array.init max_h (fun i ->
            let l = i + 1 in
            c - Protection.link_level ~offered:loads.(k) ~capacity:c ~h:l))
      capacities
  in
  let decide ~occupancy trace i =
    match Controller.primary_for routes choice trace i with
    | None -> Engine.Lost
    | Some primary ->
      let primary_fits =
        Array.for_all
          (fun k -> occupancy.(k) < capacities.(k))
          primary.Path.link_ids
      in
      if primary_fits then Engine.Routed primary
      else begin
        let src = trace.Trace.srcs.(i) and dst = trace.Trace.dsts.(i) in
        let admits p =
          let l = Path.hops p in
          l <= max_h
          && Array.for_all
               (fun k -> occupancy.(k) < thresholds.(k).(l - 1))
               p.Path.link_ids
        in
        match
          List.find_opt admits
            (Route_table.alternates_excluding routes ~src ~dst primary)
        with
        | Some p -> Engine.Routed p
        | None -> Engine.Lost
      end
  in
  { Engine.name = "controlled-length-aware";
    decide;
    primary = Controller.primary_for routes choice }

let controlled_adaptive ?(choice = Controller.Table) ?observer ?h ?window
    ?smoothing ?(refresh = 10.) ?initial_loads routes =
  if refresh <= 0. then invalid_arg "Scheme.controlled_adaptive: bad refresh";
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
  let decide ~occupancy trace i =
    let now = trace.Trace.times.(i) in
    (* every primary set-up packet is seen by every link on the primary
       path, whether or not the call completes *)
    (match Controller.primary_for routes choice trace i with
    | Some primary ->
      Array.iter
        (fun k -> Estimator.observe estimators.(k) ~now)
        primary.Path.link_ids
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
    Controller.decide ?observer ~routes ~admission:!admission ~choice
      ~allow_alternates:true ~occupancy trace i
  in
  { Engine.name = "controlled-adaptive";
    decide;
    primary = Controller.primary_for routes choice }

let ott_krishnan ?(revenue = 1.) ?(reduced_load = false) ~matrix routes =
  if revenue <= 0. then invalid_arg "Scheme.ott_krishnan: revenue <= 0";
  let capacities = capacities_of routes in
  let loads =
    if not reduced_load then Loads.primary_link_loads routes matrix
    else begin
      let pair_routes = Loads.offered_to_pair_paths routes matrix in
      let blocking = Reduced_load.solve ~capacities pair_routes in
      Reduced_load.reduced_link_loads ~capacities ~blocking pair_routes
    end
  in
  let price_tables =
    Array.mapi
      (fun k c ->
        (* a zero-capacity link is always full, priced infinite below *)
        if loads.(k) <= 0. || c = 0 then None
        else Some (Shadow_price.make ~offered:loads.(k) ~capacity:c))
      capacities
  in
  let link_price ~occupancy k =
    if occupancy.(k) >= capacities.(k) then infinity
    else
      match price_tables.(k) with
      | None -> 0.  (* no primary traffic to displace *)
      | Some t -> Shadow_price.price t occupancy.(k)
  in
  let path_price ~occupancy p =
    Array.fold_left
      (fun acc k -> acc +. link_price ~occupancy k)
      0. p.Path.link_ids
  in
  let decide ~occupancy (trace : Trace.t) i =
    let src = trace.Trace.srcs.(i) and dst = trace.Trace.dsts.(i) in
    if not (Route_table.has_route routes ~src ~dst) then Engine.Lost
    else begin
      (* all_paths is sorted by length, so strict improvement keeps the
         shortest among equal-price paths *)
      let best =
        List.fold_left
          (fun best p ->
            let cost = path_price ~occupancy p in
            match best with
            | Some (_, c) when c <= cost -> best
            | _ when cost = infinity -> best
            | _ -> Some (p, cost))
          None
          (Route_table.all_paths routes ~src ~dst)
      in
      match best with
      | Some (p, cost) when cost <= revenue -> Engine.Routed p
      | Some _ | None -> Engine.Lost
    end
  in
  { Engine.name = (if reduced_load then "ott-krishnan-reduced" else "ott-krishnan");
    decide;
    primary = Controller.primary_for routes Controller.Table }

let least_busy ?reserves routes =
  let capacities = capacities_of routes in
  let admission =
    match reserves with
    | None -> Admission.unprotected ~capacities
    | Some reserves -> Admission.make ~capacities ~reserves
  in
  let decide ~occupancy (trace : Trace.t) i =
    let src = trace.Trace.srcs.(i) and dst = trace.Trace.dsts.(i) in
    if not (Route_table.has_route routes ~src ~dst) then Engine.Lost
    else begin
      let primary = Route_table.primary routes ~src ~dst in
      if Admission.path_admits_primary admission ~occupancy primary then
        Engine.Routed primary
      else begin
        let admissible =
          Route_table.alternates_excluding routes ~src ~dst primary
          |> List.filter (Admission.path_admits_alternate admission ~occupancy)
        in
        match admissible with
        | [] -> Engine.Lost
        | first :: _ ->
          let shortest = Path.hops first in
          let same_length =
            List.filter (fun p -> Path.hops p = shortest) admissible
          in
          let busier a b =
            compare
              (Admission.free_circuits admission ~occupancy b)
              (Admission.free_circuits admission ~occupancy a)
          in
          (match List.stable_sort busier same_length with
          | best :: _ -> Engine.Routed best
          | [] -> Engine.Lost)
      end
    end
  in
  { Engine.name = "least-busy";
    decide;
    primary = Controller.primary_for routes Controller.Table }

let name_of (p : Engine.policy) = p.Engine.name
