open Arnet_topology
open Arnet_paths
open Arnet_sim

type primary_choice =
  | Table
  | Sampled of (src:int -> dst:int -> u:float -> Path.t option)

let primary_for routes choice (trace : Trace.t) i =
  let src = trace.Trace.srcs.(i) and dst = trace.Trace.dsts.(i) in
  match choice with
  | Table ->
    if Route_table.has_route routes ~src ~dst then
      Some (Route_table.primary routes ~src ~dst)
    else None
  | Sampled f -> f ~src ~dst ~u:trace.Trace.us.(i)

(* ------------------------------------------------------------------ *)
(* compiled decision tables: the allocation-free fast path for the
   table-primary, unobserved case (every paper scheme in its benchmark
   configuration).  All decision material — the primary, its [Routed]
   outcome, the primary-excluded alternates and *their* [Routed]
   outcomes — is built once per ordered O-D pair, so deciding a call is
   array indexing plus per-link occupancy compares: no list filter, no
   closure, no option, no variant allocation. *)

type plan = {
  plan_primary : Path.t option;  (* prebuilt; never allocated per call *)
  routed_primary : Engine.outcome;  (* Routed primary, or Lost if none *)
  alt_paths : Path.t array;  (* attempt order, table primary excluded *)
  alt_outcomes : Engine.outcome array;  (* Routed alt_paths.(i) *)
}

let unroutable =
  { plan_primary = None;
    routed_primary = Engine.Lost;
    alt_paths = [||];
    alt_outcomes = [||] }

let rec scan_alternates admission occupancy bandwidth paths outcomes i =
  if i >= Array.length paths then Engine.Lost
  else if
    Admission.path_admits admission ~occupancy ~bandwidth ~primary:false
      (Array.unsafe_get paths i)
  then Array.unsafe_get outcomes i
  else scan_alternates admission occupancy bandwidth paths outcomes (i + 1)

let pair_table ?(domains = 1) routes ~unroutable plan =
  let n = Graph.node_count (Route_table.graph routes) in
  let plan_for src dst =
    if src = dst || not (Route_table.has_route routes ~src ~dst) then
      unroutable
    else plan ~src ~dst
  in
  (* per-source rows shard across domains; each plan depends only on its
     own pair's table entry, so the assembled array is bit-identical to
     the sequential Array.init for every domain count *)
  let rows =
    Arnet_pool.map ~domains
      (fun src -> Array.init n (fun dst -> plan_for src dst))
      (List.init n Fun.id)
  in
  let plans = Array.make (n * n) unroutable in
  List.iteri (fun src row -> Array.blit row 0 plans (src * n) n) rows;
  plans

let plans ?domains routes =
  pair_table ?domains routes ~unroutable (fun ~src ~dst ->
      let p = Route_table.primary routes ~src ~dst in
      let alts = Route_table.alternate_array routes ~src ~dst in
      { plan_primary = Some p;
        routed_primary = Engine.Routed p;
        alt_paths = alts;
        alt_outcomes = Array.map (fun q -> Engine.Routed q) alts })

let compile ?domains ~name ~routes ~admission ~allow_alternates () =
  let n = Graph.node_count (Route_table.graph routes) in
  let plans = plans ?domains routes in
  let plan_of (trace : Trace.t) i =
    plans.((trace.Trace.srcs.(i) * n) + trace.Trace.dsts.(i))
  in
  let decide ~occupancy (trace : Trace.t) i =
    let plan = plan_of trace i in
    match plan.plan_primary with
    | None -> Engine.Lost
    | Some p ->
      let bandwidth = trace.Trace.bandwidths.(trace.Trace.classes.(i)) in
      if Admission.path_admits admission ~occupancy ~bandwidth ~primary:true p
      then plan.routed_primary
      else if not allow_alternates then Engine.Lost
      else
        scan_alternates admission occupancy bandwidth plan.alt_paths
          plan.alt_outcomes 0
  in
  let primary trace i = (plan_of trace i).plan_primary in
  { Engine.name; decide; primary }

let decide ?observer ~routes ~admission ~choice ~allow_alternates ~occupancy
    (trace : Trace.t) i =
  match primary_for routes choice trace i with
  | None -> Engine.Lost
  | Some primary ->
    let src = trace.Trace.srcs.(i) and dst = trace.Trace.dsts.(i) in
    let primary_ok = Admission.path_admits_primary admission ~occupancy primary in
    (match observer with
    | Some f ->
      f
        (Arnet_obs.Event.Primary_attempt
           { time = trace.Trace.times.(i);
             src;
             dst;
             hops = Path.hops primary;
             admitted = primary_ok })
    | None -> ());
    if primary_ok then Engine.Routed primary
    else if not allow_alternates then Engine.Lost
    else begin
      let alternates =
        Route_table.alternates_excluding routes ~src ~dst primary
      in
      match observer with
      | None -> (
        (* hot path: no event construction, no refusal analysis *)
        let admissible p =
          Admission.path_admits_alternate admission ~occupancy p
        in
        match List.find_opt admissible alternates with
        | Some p -> Engine.Routed p
        | None -> Engine.Lost)
      | Some f ->
        let rec attempt = function
          | [] -> Engine.Lost
          | p :: rest -> (
            match Admission.alternate_refusal admission ~occupancy p with
            | None -> Engine.Routed p
            | Some (link, occ, threshold) ->
              f
                (Arnet_obs.Event.Alternate_rejected
                   { time = trace.Trace.times.(i);
                     src;
                     dst;
                     hops = Path.hops p;
                     link;
                     occupancy = occ;
                     threshold });
              attempt rest)
        in
        attempt alternates
    end
