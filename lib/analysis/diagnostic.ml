type severity = Error | Warning | Info

type location =
  | Network
  | Node of int
  | Link of { id : int; src : int; dst : int }
  | Pair of { src : int; dst : int }

type t = {
  code : string;
  severity : severity;
  location : location;
  message : string;
}

let make severity ~code location message = { code; severity; location; message }
let error = make Error
let warning = make Warning
let info = make Info

let severity_label : severity -> string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let is_error d = d.severity = Error

let severity_rank : severity -> int = function
  | Error -> 0
  | Warning -> 1
  | Info -> 2

let location_rank = function
  | Network -> (0, 0, 0)
  | Node v -> (1, v, 0)
  | Link { id; _ } -> (2, id, 0)
  | Pair { src; dst } -> (3, src, dst)

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = Stdlib.compare (location_rank a.location) (location_rank b.location) in
      if c <> 0 then c else String.compare a.message b.message

let pp_location ppf = function
  | Network -> Format.pp_print_string ppf "network"
  | Node v -> Format.fprintf ppf "node %d" v
  | Link { id; src; dst } -> Format.fprintf ppf "link %d (%d->%d)" id src dst
  | Pair { src; dst } -> Format.fprintf ppf "pair %d->%d" src dst

let pp ppf d =
  Format.fprintf ppf "%s[%s] %a: %s" (severity_label d.severity) d.code
    pp_location d.location d.message

let to_string d = Format.asprintf "%a" pp d

(* ------------------------------------------------------------------ *)
(* JSON emission *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let location_json = function
  | Network -> {|{"kind": "network"}|}
  | Node v -> Printf.sprintf {|{"kind": "node", "node": %d}|} v
  | Link { id; src; dst } ->
    Printf.sprintf {|{"kind": "link", "id": %d, "src": %d, "dst": %d}|} id src
      dst
  | Pair { src; dst } ->
    Printf.sprintf {|{"kind": "pair", "src": %d, "dst": %d}|} src dst

let json_of one =
  Printf.sprintf
    {|{"code": "%s", "severity": "%s", "location": %s, "message": "%s"}|}
    (escape one.code)
    (severity_label one.severity)
    (location_json one.location)
    (escape one.message)

let json_of_list ds =
  match ds with
  | [] -> "[]"
  | ds -> "[\n  " ^ String.concat ",\n  " (List.map json_of ds) ^ "\n]"

(* ------------------------------------------------------------------ *)
(* JSON reading — a minimal recursive-descent reader for exactly the
   shape emitted above (objects of strings/ints, arrays of objects).
   Kept dependency-free: the container ships no JSON library. *)

type json =
  | J_string of string
  | J_int of int
  | J_obj of (string * json) list
  | J_arr of json list

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail reason = invalid_arg ("Diagnostic.list_of_json: " ^ reason) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c at offset %d" c !pos)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); loop ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); loop ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); loop ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); loop ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); loop ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> fail "non-ASCII \\u escape"
          | None -> fail "bad \\u escape");
          loop ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') ->
        advance ();
        digits ()
      | _ -> ()
    in
    digits ();
    if !pos = start then fail "expected integer";
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some i -> i
    | None -> fail "bad integer"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_string (parse_string ())
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some ('-' | '0' .. '9') -> J_int (parse_int ())
    | _ -> fail (Printf.sprintf "unexpected input at offset %d" !pos)
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (advance (); J_obj [])
    else
      let rec members acc =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ((key, v) :: acc)
        | Some '}' ->
          advance ();
          J_obj (List.rev ((key, v) :: acc))
        | _ -> fail "expected , or } in object"
      in
      members []
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (advance (); J_arr [])
    else
      let rec elements acc =
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          elements (v :: acc)
        | Some ']' ->
          advance ();
          J_arr (List.rev (v :: acc))
        | _ -> fail "expected , or ] in array"
      in
      elements []
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let field fields key =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> invalid_arg ("Diagnostic.list_of_json: missing field " ^ key)

let as_string = function
  | J_string s -> s
  | _ -> invalid_arg "Diagnostic.list_of_json: expected string"

let as_int = function
  | J_int i -> i
  | _ -> invalid_arg "Diagnostic.list_of_json: expected integer"

let severity_of_label : string -> severity = function
  | "error" -> Error
  | "warning" -> Warning
  | "info" -> Info
  | s -> invalid_arg ("Diagnostic.list_of_json: unknown severity " ^ s)

let location_of_json = function
  | J_obj fields -> (
    match as_string (field fields "kind") with
    | "network" -> Network
    | "node" -> Node (as_int (field fields "node"))
    | "link" ->
      Link
        {
          id = as_int (field fields "id");
          src = as_int (field fields "src");
          dst = as_int (field fields "dst");
        }
    | "pair" ->
      Pair { src = as_int (field fields "src"); dst = as_int (field fields "dst") }
    | k -> invalid_arg ("Diagnostic.list_of_json: unknown location kind " ^ k))
  | _ -> invalid_arg "Diagnostic.list_of_json: location must be an object"

let of_json = function
  | J_obj fields ->
    {
      code = as_string (field fields "code");
      severity = severity_of_label (as_string (field fields "severity"));
      location = location_of_json (field fields "location");
      message = as_string (field fields "message");
    }
  | _ -> invalid_arg "Diagnostic.list_of_json: diagnostic must be an object"

let list_of_json s =
  match parse_json s with
  | J_arr items -> List.map of_json items
  | _ -> invalid_arg "Diagnostic.list_of_json: expected a top-level array"
