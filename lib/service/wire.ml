type command =
  | Setup of { src : int; dst : int; time : float option }
  | Teardown of { id : int }
  | Fail of { link : int }
  | Repair of { link : int }
  | Reload
  | Link_add of { src : int; dst : int; capacity : int }
  | Link_del of { src : int; dst : int }
  | Stats
  | Drain
  | Quit
  | Hello of { mode : string }

type stats = {
  accepted : int;
  blocked : int;
  torn_down : int;
  dropped : int;
  failovers : int;
  active : int;
  reloads : int;
  failed : int list;
  draining : bool;
}

type response =
  | Admitted of { id : int; path : int list }
  | Blocked
  | Done
  | Reloaded of { changed : int }
  | Patched of { recomputed : int }
  | Stats_reply of stats
  | Err of { code : string; detail : string }

(* ------------------------------------------------------------------ *)
(* printing *)

(* shortest decimal that parses back to the same float (17 significant
   digits always suffice for a binary64) *)
let float_to_wire f =
  if not (Float.is_finite f) then
    invalid_arg "Wire.float_to_wire: non-finite time";
  let shortest = Printf.sprintf "%.12g" f in
  if float_of_string shortest = f then shortest else Printf.sprintf "%.17g" f

let print_command = function
  | Setup { src; dst; time = None } -> Printf.sprintf "SETUP %d %d" src dst
  | Setup { src; dst; time = Some t } ->
    if not (Float.is_finite t) || t < 0. then
      invalid_arg "Wire.print_command: SETUP time must be finite and >= 0";
    Printf.sprintf "SETUP %d %d %s" src dst (float_to_wire t)
  | Teardown { id } -> Printf.sprintf "TEARDOWN %d" id
  | Fail { link } -> Printf.sprintf "FAIL %d" link
  | Repair { link } -> Printf.sprintf "REPAIR %d" link
  | Reload -> "RELOAD"
  | Link_add { src; dst; capacity } ->
    Printf.sprintf "LINK ADD %d %d %d" src dst capacity
  | Link_del { src; dst } -> Printf.sprintf "LINK DEL %d %d" src dst
  | Stats -> "STATS"
  | Drain -> "DRAIN"
  | Quit -> "QUIT"
  | Hello { mode } ->
    if mode = "" || String.exists (fun c -> c = ' ' || c = '\t') mode then
      invalid_arg "Wire.print_command: HELLO mode must be one nonempty token";
    "HELLO " ^ mode

let print_path path =
  if List.length path < 2 then
    invalid_arg "Wire.print_response: ADMITTED path needs >= 2 nodes";
  String.concat "-" (List.map string_of_int path)

let print_stats s =
  Printf.sprintf
    "STATS accepted=%d blocked=%d torn_down=%d dropped=%d failovers=%d \
     active=%d reloads=%d draining=%d failed=%s"
    s.accepted s.blocked s.torn_down s.dropped s.failovers s.active s.reloads
    (if s.draining then 1 else 0)
    (String.concat "," (List.map string_of_int s.failed))

let print_response = function
  | Admitted { id; path } -> Printf.sprintf "ADMITTED %d %s" id (print_path path)
  | Blocked -> "BLOCKED"
  | Done -> "OK"
  | Reloaded { changed } -> Printf.sprintf "RELOADED %d" changed
  | Patched { recomputed } -> Printf.sprintf "PATCHED %d" recomputed
  | Stats_reply s -> print_stats s
  | Err { code; detail } ->
    if code = "" || String.contains code ' ' then
      invalid_arg "Wire.print_response: ERR code must be one nonempty token";
    if String.contains detail '\n' || String.contains detail '\r' then
      invalid_arg "Wire.print_response: ERR detail must be one line";
    Printf.sprintf "ERR %s %s" code detail

(* ------------------------------------------------------------------ *)
(* parsing *)

let tokens line =
  String.split_on_char ' ' (String.trim line)
  |> List.filter (fun t -> t <> "")

let int_arg name s k =
  match int_of_string_opt s with
  | Some n -> k n
  | None -> Error ("bad-argument", Printf.sprintf "%s must be an integer" name)

let time_arg s k =
  match float_of_string_opt s with
  | Some t when Float.is_finite t && t >= 0. -> k t
  | Some _ | None ->
    Error ("bad-argument", "time must be a finite nonnegative number")

let parse_command line =
  match tokens line with
  | [] -> Error ("bad-command", "empty command line")
  | verb :: args -> (
    match (String.uppercase_ascii verb, args) with
    | "SETUP", [ a; b ] ->
      int_arg "src" a (fun src ->
          int_arg "dst" b (fun dst -> Ok (Setup { src; dst; time = None })))
    | "SETUP", [ a; b; t ] ->
      int_arg "src" a (fun src ->
          int_arg "dst" b (fun dst ->
              time_arg t (fun time -> Ok (Setup { src; dst; time = Some time }))))
    | "SETUP", _ -> Error ("bad-argument", "usage: SETUP <src> <dst> [<time>]")
    | "TEARDOWN", [ a ] -> int_arg "id" a (fun id -> Ok (Teardown { id }))
    | "TEARDOWN", _ -> Error ("bad-argument", "usage: TEARDOWN <id>")
    | "FAIL", [ a ] -> int_arg "link" a (fun link -> Ok (Fail { link }))
    | "FAIL", _ -> Error ("bad-argument", "usage: FAIL <link>")
    | "REPAIR", [ a ] -> int_arg "link" a (fun link -> Ok (Repair { link }))
    | "REPAIR", _ -> Error ("bad-argument", "usage: REPAIR <link>")
    | "RELOAD", [] -> Ok Reload
    | "RELOAD", _ -> Error ("bad-argument", "RELOAD takes no argument")
    | "LINK", sub :: rest -> (
      match (String.uppercase_ascii sub, rest) with
      | "ADD", [ a; b; c ] ->
        int_arg "src" a (fun src ->
            int_arg "dst" b (fun dst ->
                int_arg "capacity" c (fun capacity ->
                    Ok (Link_add { src; dst; capacity }))))
      | "ADD", _ ->
        Error ("bad-argument", "usage: LINK ADD <src> <dst> <capacity>")
      | "DEL", [ a; b ] ->
        int_arg "src" a (fun src ->
            int_arg "dst" b (fun dst -> Ok (Link_del { src; dst })))
      | "DEL", _ -> Error ("bad-argument", "usage: LINK DEL <src> <dst>")
      | _ -> Error ("bad-argument", "usage: LINK ADD|DEL ..."))
    | "LINK", [] -> Error ("bad-argument", "usage: LINK ADD|DEL ...")
    | "STATS", [] -> Ok Stats
    | "STATS", _ -> Error ("bad-argument", "STATS takes no argument")
    | "DRAIN", [] -> Ok Drain
    | "DRAIN", _ -> Error ("bad-argument", "DRAIN takes no argument")
    | "QUIT", [] -> Ok Quit
    | "QUIT", _ -> Error ("bad-argument", "QUIT takes no argument")
    (* a tab survives space splitting, but print_command refuses it *)
    | "HELLO", [ mode ] when not (String.contains mode '\t') ->
      Ok (Hello { mode })
    | "HELLO", _ -> Error ("bad-argument", "usage: HELLO <mode>")
    | _ -> Error ("bad-command", Printf.sprintf "unknown command %S" verb))

let parse_path s =
  let parts = String.split_on_char '-' s in
  let rec ints acc = function
    | [] -> Some (List.rev acc)
    | p :: rest -> (
      match int_of_string_opt p with
      | Some n -> ints (n :: acc) rest
      | None -> None)
  in
  match ints [] parts with
  | Some (_ :: _ :: _ as nodes) -> Some nodes
  | Some _ | None -> None

let parse_stats fields =
  let lookup key =
    List.assoc_opt key
      (List.filter_map
         (fun f ->
           match String.index_opt f '=' with
           | Some i ->
             Some
               ( String.sub f 0 i,
                 String.sub f (i + 1) (String.length f - i - 1) )
           | None -> None)
         fields)
  in
  let int_field key k =
    match Option.bind (lookup key) int_of_string_opt with
    | Some n -> k n
    | None -> Error (Printf.sprintf "STATS is missing integer field %s" key)
  in
  int_field "accepted" (fun accepted ->
      int_field "blocked" (fun blocked ->
          int_field "torn_down" (fun torn_down ->
              int_field "dropped" (fun dropped ->
                  int_field "failovers" (fun failovers ->
                      int_field "active" (fun active ->
                          int_field "reloads" (fun reloads ->
                              int_field "draining" (fun draining ->
                                  match lookup "failed" with
                                  | None ->
                                    Error "STATS is missing field failed"
                                  | Some "" ->
                                    Ok
                                      (Stats_reply
                                         { accepted; blocked; torn_down;
                                           dropped; failovers; active;
                                           reloads; failed = [];
                                           draining = draining <> 0 })
                                  | Some s -> (
                                    let parts = String.split_on_char ',' s in
                                    match
                                      List.fold_right
                                        (fun p acc ->
                                          match (acc, int_of_string_opt p)
                                          with
                                          | Some acc, Some n -> Some (n :: acc)
                                          | _ -> None)
                                        parts (Some [])
                                    with
                                    | Some failed ->
                                      Ok
                                        (Stats_reply
                                           { accepted; blocked; torn_down;
                                             dropped; failovers; active;
                                             reloads; failed;
                                             draining = draining <> 0 })
                                    | None ->
                                      Error "STATS failed= must be link ids")))))))))

let parse_response line =
  let line = String.trim line in
  match tokens line with
  | [] -> Error "empty response line"
  | verb :: args -> (
    match (verb, args) with
    | "ADMITTED", [ id; path ] -> (
      match (int_of_string_opt id, parse_path path) with
      | Some id, Some path -> Ok (Admitted { id; path })
      | None, _ -> Error "ADMITTED id must be an integer"
      | _, None -> Error "ADMITTED path must be >= 2 dash-separated nodes")
    | "ADMITTED", _ -> Error "usage: ADMITTED <id> <path>"
    | "BLOCKED", [] -> Ok Blocked
    | "OK", [] -> Ok Done
    | "RELOADED", [ n ] -> (
      match int_of_string_opt n with
      | Some changed -> Ok (Reloaded { changed })
      | None -> Error "RELOADED count must be an integer")
    | "PATCHED", [ n ] -> (
      match int_of_string_opt n with
      | Some recomputed -> Ok (Patched { recomputed })
      | None -> Error "PATCHED count must be an integer")
    | "STATS", fields -> parse_stats fields
    | "ERR", code :: _ ->
      (* detail = everything after the first space following the code
         token, verbatim (inner spacing preserved) *)
      let detail =
        let n = String.length line in
        let skip_spaces i =
          let i = ref i in
          while !i < n && line.[!i] = ' ' do incr i done;
          !i
        in
        let skip_token i =
          let i = ref i in
          while !i < n && line.[!i] <> ' ' do incr i done;
          !i
        in
        let after_code = skip_token (skip_spaces (skip_token 0)) in
        if after_code >= n then "" else String.sub line (after_code + 1) (n - after_code - 1)
      in
      Ok (Err { code; detail })
    | "ERR", [] -> Error "ERR needs a code"
    | _ -> Error (Printf.sprintf "unknown response %S" verb))

(* ------------------------------------------------------------------ *)

let equal_command a b =
  match (a, b) with
  | Setup a, Setup b ->
    a.src = b.src && a.dst = b.dst
    && (match (a.time, b.time) with
       | None, None -> true
       | Some x, Some y -> Float.equal x y
       | _ -> false)
  | Teardown a, Teardown b -> a.id = b.id
  | Fail a, Fail b -> a.link = b.link
  | Repair a, Repair b -> a.link = b.link
  | Reload, Reload | Stats, Stats | Drain, Drain | Quit, Quit -> true
  | Hello a, Hello b -> a.mode = b.mode
  | Link_add a, Link_add b ->
    a.src = b.src && a.dst = b.dst && a.capacity = b.capacity
  | Link_del a, Link_del b -> a.src = b.src && a.dst = b.dst
  | _ -> false

let equal_response a b =
  match (a, b) with
  | Admitted a, Admitted b -> a.id = b.id && a.path = b.path
  | Blocked, Blocked | Done, Done -> true
  | Reloaded a, Reloaded b -> a.changed = b.changed
  | Patched a, Patched b -> a.recomputed = b.recomputed
  | Stats_reply a, Stats_reply b -> a = b
  | Err a, Err b -> a.code = b.code && a.detail = b.detail
  | _ -> false
