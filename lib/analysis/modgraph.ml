type node = {
  name : string;
  file : string;
  deps : string list;
  spawn_entries : string list;
  calls : (string * string) list;
}

type t = { nodes : node list }

let create nodes = { nodes }

let node t name = List.find_opt (fun n -> n.name = name) t.nodes

let mem t name = node t name <> None

(* ------------------------------------------------------------------ *)
(* domain reachability.

   Roots are the compilation units that spawn concurrency themselves
   ([Domain.spawn] / [Thread.create]) plus every unit that calls one of
   a spawner's spawning entry points (today: [Arnet_pool.map] from
   Engine, Controller and Route_table) — the closures those callers
   build run on worker domains, so everything the caller can reference
   is domain-visible.  The reachable set is the downward dependency
   closure of the roots.

   This over-approximates (a caller's dependency used only on the main
   domain is still marked) and under-approximates in one known way:
   a closure built by module A, passed through module B, and only then
   handed to Arnet_pool.map is attributed to B, not A — the run
   closures Multirate_exp hands to Engine.replicate_grid are such a
   case.  Both directions are
   documented in DESIGN.md; the allowlist absorbs the former, code
   review the latter. *)

let spawners t = List.filter (fun n -> n.spawn_entries <> []) t.nodes

let roots t =
  let spawn_mods = spawners t in
  let is_entry_call (m, f) =
    List.exists
      (fun s -> s.name = m && List.mem f s.spawn_entries)
      spawn_mods
  in
  let callers =
    List.filter (fun n -> List.exists is_entry_call n.calls) t.nodes
  in
  List.sort_uniq String.compare
    (List.map (fun n -> n.name) (spawn_mods @ callers))

let domain_reachable t =
  let reached = Hashtbl.create 32 in
  let rec visit name =
    if (not (Hashtbl.mem reached name)) && mem t name then begin
      Hashtbl.add reached name ();
      match node t name with
      | Some n -> List.iter visit n.deps
      | None -> ()
    end
  in
  List.iter visit (roots t);
  List.sort String.compare
    (Hashtbl.fold (fun name () acc -> name :: acc) reached [])

let is_domain_reachable t name = List.mem name (domain_reachable t)
