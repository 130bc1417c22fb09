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
(* JSON, through the one codec the program carries *)

module J = Arnet_obs.Jsonu

let location_json = function
  | Network -> J.Obj [ ("kind", J.String "network") ]
  | Node v -> J.Obj [ ("kind", J.String "node"); ("node", J.Int v) ]
  | Link { id; src; dst } ->
    J.Obj
      [ ("kind", J.String "link"); ("id", J.Int id); ("src", J.Int src);
        ("dst", J.Int dst) ]
  | Pair { src; dst } ->
    J.Obj [ ("kind", J.String "pair"); ("src", J.Int src); ("dst", J.Int dst) ]

let json_of_list ds =
  J.to_string
    (J.List
       (List.map
          (fun d ->
            J.Obj
              [ ("code", J.String d.code);
                ("severity", J.String (severity_label d.severity));
                ("location", location_json d.location);
                ("message", J.String d.message) ])
          ds))

let severity_of_label : string -> severity = function
  | "error" -> Error
  | "warning" -> Warning
  | "info" -> Info
  | s -> raise (J.Parse_error ("unknown severity " ^ s))

let location_of_json v =
  let int key = J.as_int (J.member_exn key v) in
  match J.as_string (J.member_exn "kind" v) with
  | "network" -> Network
  | "node" -> Node (int "node")
  | "link" -> Link { id = int "id"; src = int "src"; dst = int "dst" }
  | "pair" -> Pair { src = int "src"; dst = int "dst" }
  | k -> raise (J.Parse_error ("unknown location kind " ^ k))

let of_json v =
  let string key = J.as_string (J.member_exn key v) in
  { code = string "code";
    severity = severity_of_label (string "severity");
    location = location_of_json (J.member_exn "location" v);
    message = string "message" }

let list_of_json s =
  try List.map of_json (J.as_list (J.parse s))
  with J.Parse_error reason ->
    invalid_arg ("Diagnostic.list_of_json: " ^ reason)
