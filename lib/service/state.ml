open Arnet_topology
open Arnet_paths
open Arnet_traffic
open Arnet_core
module Obs = Arnet_obs

type call = {
  links : int array;  (** link ids holding one circuit for this call *)
}

type t = {
  mutable graph : Graph.t;
  mutable routes : Route_table.t;
  h : int;  (** protection-rule H: the route table's alternate cap *)
  mutable capacities : int array;
  mutable reserves : int array;
  mutable plans : Controller.plan array;
      (** the two-tier plans of [routes], rebuilt with the table *)
  mutable admission : Admission.t;
      (** [capacities] and [reserves], with capacity 0 and reserve 0 on
          every failed link, so the two-tier rule refuses dead paths *)
  mutable occupancy : int array;
  mutable failed : bool array;
  mutable estimators : Estimator.t array;
  active : (int, call) Hashtbl.t;
  mutable next_id : int;
  mutable clock : float;
  mutable accepted : int;
  mutable blocked : int;
  mutable torn_down : int;
  mutable dropped : int;
  mutable failovers : int;
  mutable reloads : int;
  mutable draining : bool;
  mutable finished : bool;
  reload_every : int option;
  mutable decisions : int;  (** setups that reached a verdict *)
  script : Arnet_sim.Script.event array;
      (** scripted FAIL/REPAIRs, applied as the virtual clock passes them *)
  mutable script_pos : int;
  est_window : float option;  (** remembered so LINK ADD can mint a
                                  consistent estimator for the new link *)
  est_smoothing : float option;
  observer : (Obs.Event.t -> unit) option;
}

let create ?h ?matrix ?window ?smoothing ?reload_every ?failure_script
    ?observer g =
  (match reload_every with
  | Some n when n < 1 -> invalid_arg "State.create: reload_every < 1"
  | _ -> ());
  let script =
    match failure_script with
    | None -> [||]
    | Some s ->
      if Arnet_sim.Script.max_link s >= Graph.link_count g then
        invalid_arg "State.create: failure script mentions a link outside \
                     the graph";
      Arnet_sim.Script.to_array s
  in
  let routes = Route_table.build ?h g in
  let h = Route_table.h routes in
  let capacities =
    Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g)
  in
  let m = Array.length capacities in
  let reserves =
    match matrix with
    | Some matrix -> Protection.levels routes matrix ~h
    | None -> Array.make m 0
  in
  let initial_loads =
    match matrix with
    | Some matrix -> Loads.primary_link_loads routes matrix
    | None -> Array.make m 0.
  in
  let estimators =
    Array.init m (fun k ->
        Estimator.create ?window ?smoothing ~initial:initial_loads.(k) ())
  in
  (match observer with
  | Some f ->
    f
      (Obs.Event.Run_start
         { policy = "arnet-service";
           warmup = 0.;
           duration = 0.;
           nodes = Graph.node_count g;
           links = m })
  | None -> ());
  { graph = g;
    routes;
    h;
    capacities;
    reserves;
    plans = Controller.plans routes;
    admission = Admission.make ~capacities ~reserves;
    occupancy = Array.make m 0;
    failed = Array.make m false;
    estimators;
    active = Hashtbl.create 1024;
    next_id = 1;
    clock = 0.;
    accepted = 0;
    blocked = 0;
    torn_down = 0;
    dropped = 0;
    failovers = 0;
    reloads = 0;
    draining = false;
    finished = false;
    reload_every;
    decisions = 0;
    script;
    script_pos = 0;
    est_window = window;
    est_smoothing = smoothing;
    observer }


let graph t = t.graph
let routes t = t.routes
let clock t = t.clock
let active_calls t = Hashtbl.length t.active
let draining t = t.draining
let drained t = t.draining && Hashtbl.length t.active = 0
let occupancy t = Array.copy t.occupancy
let reserves t = Array.copy t.reserves

let failed_links t =
  let acc = ref [] in
  for k = Array.length t.failed - 1 downto 0 do
    if t.failed.(k) then acc := k :: !acc
  done;
  !acc

let err code detail = Wire.Err { code; detail }

(* the admission rule in force: a failed link has capacity 0 (and so
   reserve 0), so it refuses every call.  [occupancy], [reserves] and the
   snapshot keep the true values *)
let refresh_admission t =
  let live a = Array.mapi (fun k v -> if t.failed.(k) then 0 else v) a in
  t.admission <-
    Admission.make ~capacities:(live t.capacities) ~reserves:(live t.reserves)

(* ------------------------------------------------------------------ *)
(* RELOAD: the Theorem-1 rule at the current demand estimates *)

let do_reload t =
  let changed = ref 0 in
  Array.iteri
    (fun k e ->
      let offered = Estimator.estimate e ~now:t.clock in
      let level =
        Protection.link_level ~offered ~capacity:t.capacities.(k) ~h:t.h
      in
      if level <> t.reserves.(k) then begin
        incr changed;
        t.reserves.(k) <- level
      end)
    t.estimators;
  refresh_admission t;
  t.reloads <- t.reloads + 1;
  Wire.Reloaded { changed = !changed }

let reload t = do_reload t

(* ------------------------------------------------------------------ *)
(* FAIL/REPAIR internals: shared by the wire commands and the scripted
   failure replay *)

let release t (c : call) =
  Array.iter
    (fun k ->
      assert (t.occupancy.(k) > 0);
      t.occupancy.(k) <- t.occupancy.(k) - 1)
    c.links

(* calls holding a circuit on [link] are released, counted as dropped,
   and reported as departures -- shared by FAIL and LINK DEL *)
let drop_calls_on t ~link =
  let victims =
    Hashtbl.fold
      (fun id c acc ->
        if Array.exists (fun k -> k = link) c.links then (id, c) :: acc
        else acc)
      t.active []
  in
  List.iter
    (fun (id, c) ->
      release t c;
      Hashtbl.remove t.active id;
      t.dropped <- t.dropped + 1;
      match t.observer with
      | Some f -> f (Obs.Event.Departure { time = t.clock; links = c.links })
      | None -> ())
    (List.sort compare victims)

let apply_fail t ~link =
  if not t.failed.(link) then begin
    t.failed.(link) <- true;
    refresh_admission t;
    (* calls holding a circuit on the dead link are lost with it *)
    drop_calls_on t ~link
  end

let apply_repair t ~link =
  if t.failed.(link) then begin
    t.failed.(link) <- false;
    refresh_admission t
  end

(* scripted events fire as the virtual clock passes their times, so the
   daemon's behaviour stays a pure function of the command stream: a
   SETUP timestamp advances the clock, due FAIL/REPAIRs apply, then the
   decision runs against the updated liveness *)
let run_script t =
  while
    t.script_pos < Array.length t.script
    && t.script.(t.script_pos).Arnet_sim.Script.time <= t.clock
  do
    let e = t.script.(t.script_pos) in
    let link = e.Arnet_sim.Script.link in
    t.script_pos <- t.script_pos + 1;
    (* an event on a link of capacity 0 (a removed one) is skipped *)
    if t.capacities.(link) > 0 then
      match e.Arnet_sim.Script.action with
      | Arnet_sim.Script.Fail -> apply_fail t ~link
      | Arnet_sim.Script.Repair -> apply_repair t ~link
  done

(* ------------------------------------------------------------------ *)
(* SETUP: the two-tier rule over the pair's plan, under an admission
   rule that gives failed links capacity 0 *)

let path_alive t (p : Path.t) =
  Array.for_all (fun k -> not t.failed.(k)) p.Path.link_ids

let admit t ~now ~src ~dst ~primary (p : Path.t) =
  let links = Array.copy p.Path.link_ids in
  Array.iter (fun k -> t.occupancy.(k) <- t.occupancy.(k) + 1) links;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.active id { links };
  t.accepted <- t.accepted + 1;
  (match t.observer with
  | Some f ->
    f
      (Obs.Event.Admit
         { time = now; src; dst; hops = Path.hops p; primary; links })
  | None -> ());
  Wire.Admitted { id; path = Path.nodes p }

let block t ~now ~src ~dst =
  t.blocked <- t.blocked + 1;
  (match t.observer with
  | Some f -> f (Obs.Event.Block { time = now; src; dst })
  | None -> ());
  Wire.Blocked

let after_decision t response =
  t.decisions <- t.decisions + 1;
  (match t.reload_every with
  | Some n when t.decisions mod n = 0 -> ignore (do_reload t : Wire.response)
  | _ -> ());
  response

let setup t ~src ~dst ~time =
  if t.draining then err "draining" "daemon is draining, not admitting"
  else begin
    let n = Graph.node_count t.graph in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      err "bad-argument" (Printf.sprintf "node out of range [0, %d)" n)
    else if src = dst then err "bad-argument" "src = dst"
    else begin
      (* the clock only moves forward: stale client timestamps clamp *)
      (match time with Some u -> t.clock <- Float.max t.clock u | None -> ());
      run_script t;
      let now = t.clock in
      (match t.observer with
      | Some f -> f (Obs.Event.Arrival { time = now; src; dst; holding = 0. })
      | None -> ());
      let plan = t.plans.((src * n) + dst) in
      match plan.Controller.plan_primary with
      | None -> after_decision t (block t ~now ~src ~dst)
      | Some primary ->
        let primary_alive = path_alive t primary in
        (* every link of an intact primary path sees the set-up packet,
           admitted or not — the estimator feed of Section 1 *)
        if primary_alive then begin
          let ids = primary.Path.link_ids in
          for j = 0 to Array.length ids - 1 do
            Estimator.observe t.estimators.(ids.(j)) ~now
          done
        end;
        let occupancy = t.occupancy in
        let outcome =
          Controller.route t.admission ~allow_alternates:true ~occupancy
            ~bandwidth:1 plan
        in
        let primary_ok = outcome == plan.Controller.routed_primary in
        (match t.observer with
        | None -> ()
        | Some f ->
          f
            (Obs.Event.Primary_attempt
               { time = now; src; dst; hops = Path.hops primary;
                 admitted = primary_ok });
          (* an alternate across a failed link was never a candidate *)
          Controller.narrate t.admission ~allow_alternates:true ~occupancy
            ~bandwidth:1 plan outcome (fun p ~link ~occupancy ~threshold ->
              if path_alive t p then
                f
                  (Obs.Event.Alternate_rejected
                     { time = now; src; dst; hops = Path.hops p; link;
                       occupancy; threshold })));
        after_decision t
          (match outcome with
          | Arnet_sim.Engine.Lost -> block t ~now ~src ~dst
          | Arnet_sim.Engine.Routed p ->
            (* rerouting around a *dead* primary is a failover; around a
               busy one, ordinary overflow *)
            if not primary_alive then t.failovers <- t.failovers + 1;
            admit t ~now ~src ~dst ~primary:primary_ok p)
    end
  end

(* ------------------------------------------------------------------ *)

let teardown t ~id =
  match Hashtbl.find_opt t.active id with
  | None -> err "unknown-call" (Printf.sprintf "no active call %d" id)
  | Some c ->
    release t c;
    Hashtbl.remove t.active id;
    t.torn_down <- t.torn_down + 1;
    (match t.observer with
    | Some f -> f (Obs.Event.Departure { time = t.clock; links = c.links })
    | None -> ());
    Wire.Done

(* FAIL/REPAIR over the wire: a link of capacity 0 (removed, or added
   so) has nothing to fail or repair *)
let on_link t link apply =
  let m = Array.length t.failed in
  if link < 0 || link >= m then
    err "no-such-link" (Printf.sprintf "link id out of range [0, %d)" m)
  else if t.capacities.(link) = 0 then
    err "no-such-link" (Printf.sprintf "link %d has capacity 0" link)
  else begin
    apply t ~link;
    Wire.Done
  end

let fail t ~link = on_link t link apply_fail
let repair t ~link = on_link t link apply_repair

(* ------------------------------------------------------------------ *)
(* LINK ADD / LINK DEL: topology patches.  {!Route_table.patch} builds
   the changed graph's route table and counts the ordered pairs the
   edited arc can affect (the PATCHED count).  No link id moves: a
   removed link stays at its id with capacity 0, and an added one
   revives its pair's id or appends the next. *)

(* the changed link starts idle: reserve 0, live, a fresh estimator.
   Calls on a removed link must already be dropped *)
let relink t ~src ~dst change =
  let routes, recomputed = Route_table.patch t.routes [ change ] in
  let g = Route_table.graph routes in
  let fresh =
    Estimator.create ?window:t.est_window ?smoothing:t.est_smoothing ()
  in
  if Graph.link_count g > Array.length t.failed then begin
    t.reserves <- Array.append t.reserves [| 0 |];
    t.occupancy <- Array.append t.occupancy [| 0 |];
    t.failed <- Array.append t.failed [| false |];
    t.estimators <- Array.append t.estimators [| fresh |]
  end;
  let k = (Graph.find_link_exn g ~src ~dst).Link.id in
  t.reserves.(k) <- 0;
  t.failed.(k) <- false;
  t.estimators.(k) <- fresh;
  t.routes <- routes;
  t.plans <- Controller.plans routes;
  t.graph <- g;
  t.capacities <-
    Array.map (fun (l : Link.t) -> l.Link.capacity) (Graph.links g);
  refresh_admission t;
  Wire.Patched { recomputed }

let link_add t ~src ~dst ~capacity =
  let n = Graph.node_count t.graph in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    err "bad-argument" (Printf.sprintf "node out of range [0, %d)" n)
  else if src = dst then err "bad-argument" "src = dst"
  else if capacity < 0 then err "bad-argument" "negative capacity"
  else
    match Graph.find_link t.graph ~src ~dst with
    | Some l when l.Link.capacity > 0 ->
      err "link-exists" (Printf.sprintf "link %d -> %d already exists" src dst)
    | _ -> relink t ~src ~dst (Route_table.Add_link { src; dst; capacity })

let link_del t ~src ~dst =
  match Graph.find_link t.graph ~src ~dst with
  | Some l when l.Link.capacity > 0 ->
    (* calls holding a circuit on the removed link go with it *)
    drop_calls_on t ~link:l.Link.id;
    relink t ~src ~dst (Route_table.Remove_link { src; dst })
  | _ -> err "no-such-link" (Printf.sprintf "no link %d -> %d" src dst)

let drain t =
  t.draining <- true;
  Wire.Done

let stats t =
  { Wire.accepted = t.accepted;
    blocked = t.blocked;
    torn_down = t.torn_down;
    dropped = t.dropped;
    failovers = t.failovers;
    active = Hashtbl.length t.active;
    reloads = t.reloads;
    failed = failed_links t;
    draining = t.draining }

let finish t =
  if not t.finished then begin
    t.finished <- true;
    match t.observer with
    | Some f ->
      f (Obs.Event.Run_end { time = t.clock; calls = t.accepted + t.blocked })
    | None -> ()
  end

let snapshot t =
  Arnet_serial.Snapshot.make ~reserves:(Array.copy t.reserves)
    ~occupancy:(Array.copy t.occupancy) ~failed:(failed_links t)
    ~clock:t.clock
    ~counters:
      [ ("accepted", t.accepted);
        ("blocked", t.blocked);
        ("torn_down", t.torn_down);
        ("dropped", t.dropped);
        ("failovers", t.failovers);
        ("reloads", t.reloads) ]
    t.graph
