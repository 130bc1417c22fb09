open Arnet_topology

exception Error of string

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Error (Printf.sprintf "GML:%d: %s" line s))) fmt

let default_capacity = 100

(* ------------------------------------------------------------------ *)
(* lexing *)

type tok = Lb | Rb | Atom of string | Quoted of string

let is_atom_char c =
  match c with
  | ' ' | '\t' | '\r' | '\n' | '[' | ']' | '"' | '#' -> false
  | _ -> true

let tokenize s =
  let n = String.length s in
  let toks = ref [] and line = ref 1 and i = ref 0 in
  let push t = toks := (!line, t) :: !toks in
  while !i < n do
    (match s.[!i] with
    | '\n' -> incr line; incr i
    | ' ' | '\t' | '\r' -> incr i
    | '#' -> while !i < n && s.[!i] <> '\n' do incr i done
    | '[' -> push Lb; incr i
    | ']' -> push Rb; incr i
    | '"' ->
      let l0 = !line in
      incr i;
      let start = !i in
      while !i < n && s.[!i] <> '"' do
        if s.[!i] = '\n' then incr line;
        incr i
      done;
      if !i >= n then fail l0 "unterminated string";
      push (Quoted (String.sub s start (!i - start)));
      incr i
    | _ ->
      let start = !i in
      while !i < n && is_atom_char s.[!i] do incr i done;
      push (Atom (String.sub s start (!i - start))))
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* parsing to a generic key/value document *)

type value = Num of float | Str of string | Fields of (string * value) list

let rec parse_value toks =
  match toks with
  | [] -> fail 0 "unexpected end of input"
  | (line, tok) :: rest -> (
    match tok with
    | Quoted s -> (Str s, rest)
    | Atom a -> (
      match float_of_string_opt a with
      | Some f -> (Num f, rest)
      | None -> (Str a, rest))
    | Lb ->
      let fields, rest = parse_fields rest in
      (Fields fields, rest)
    | Rb -> fail line "unexpected ']'")

and parse_fields toks =
  match toks with
  | [] -> fail 0 "unterminated '['"
  | (_, Rb) :: rest -> ([], rest)
  | (_, Atom key) :: rest ->
    let v, rest = parse_value rest in
    let fields, rest = parse_fields rest in
    ((key, v) :: fields, rest)
  | (line, _) :: _ -> fail line "expected a key"

let rec parse_top toks acc =
  match toks with
  | [] -> List.rev acc
  | (_, Atom key) :: rest ->
    let v, rest = parse_value rest in
    parse_top rest ((key, v) :: acc)
  | (line, _) :: _ -> fail line "expected a top-level key"

let find_opt key fields = List.assoc_opt key fields
let find_all key fields =
  List.filter_map (fun (k, v) -> if k = key then Some v else None) fields

let num_opt key fields =
  match find_opt key fields with
  | Some (Num f) -> Some f
  | Some (Str s) -> float_of_string_opt s
  | _ -> None

let str_opt key fields =
  match find_opt key fields with
  | Some (Str s) -> Some s
  | Some (Num f) ->
    (* integer-valued labels print without the ".": [label 3] is "3" *)
    Some
      (if Float.is_integer f then string_of_int (int_of_float f)
       else string_of_float f)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* semantics *)

let capacity_of_fields fields =
  let keys = [ "capacity"; "bandwidth"; "LinkSpeed" ] in
  match List.find_map (fun k -> num_opt k fields) keys with
  | None -> default_capacity
  | Some f ->
    if not (Float.is_finite f) || f < 0. then
      fail 0 "negative or non-finite edge capacity"
    else int_of_float (Float.round f)

let coords_of_fields fields =
  match (num_opt "Longitude" fields, num_opt "Latitude" fields) with
  | Some lon, Some lat -> Some (lon, lat)
  | _ -> (
    match find_opt "graphics" fields with
    | Some (Fields gfx) -> (
      match (num_opt "x" gfx, num_opt "y" gfx) with
      | Some x, Some y -> Some (x, y)
      | _ -> None)
    | _ -> None)

let parse text =
  let doc = parse_top (tokenize text) [] in
  let graph_fields =
    match find_opt "graph" doc with
    | Some (Fields f) -> f
    | _ -> fail 0 "no graph [ ... ] block"
  in
  let directed =
    match num_opt "directed" graph_fields with Some 1. -> true | _ -> false
  in
  let name =
    match str_opt "label" graph_fields with
    | Some s when s <> "" -> s
    | _ -> (
      match str_opt "Network" graph_fields with
      | Some s when s <> "" -> s
      | _ -> "gml")
  in
  (* nodes: dense renumbering in order of appearance *)
  let ids = Hashtbl.create 64 in
  let labels = ref [] and coords = ref [] and count = ref 0 in
  List.iter
    (fun v ->
      match v with
      | Fields fields ->
        let id =
          match num_opt "id" fields with
          | Some f when Float.is_integer f -> int_of_float f
          | _ -> fail 0 "node without an integer id"
        in
        if Hashtbl.mem ids id then fail 0 "duplicate node id %d" id;
        Hashtbl.add ids id !count;
        incr count;
        let label =
          match str_opt "label" fields with
          | Some s -> s
          | None -> Printf.sprintf "n%d" id
        in
        labels := label :: !labels;
        coords := coords_of_fields fields :: !coords
      | _ -> fail 0 "malformed node block")
    (find_all "node" graph_fields);
  let n = !count in
  if n = 0 then fail 0 "graph has no nodes";
  let labels = Array.of_list (List.rev !labels) in
  let coords = Array.of_list (List.rev !coords) in
  (* edges: dedupe on (ordered or unordered) endpoint pair, keeping first
     appearance order; sum capacities of merged parallels *)
  let order = ref [] and caps = Hashtbl.create 64 in
  let merged = ref 0 and self_loops = ref 0 in
  let node_of id =
    match Hashtbl.find_opt ids id with
    | Some v -> v
    | None -> fail 0 "edge endpoint %d is not a declared node" id
  in
  List.iter
    (fun v ->
      match v with
      | Fields fields ->
        let endpoint key =
          match num_opt key fields with
          | Some f when Float.is_integer f -> node_of (int_of_float f)
          | _ -> fail 0 "edge without integer %s" key
        in
        let src = endpoint "source" and dst = endpoint "target" in
        let cap = capacity_of_fields fields in
        if src = dst then incr self_loops
        else begin
          let key =
            if directed then (src, dst) else (min src dst, max src dst)
          in
          match Hashtbl.find_opt caps key with
          | Some r ->
            r := !r + cap;
            incr merged
          | None ->
            Hashtbl.add caps key (ref cap);
            order := (src, dst) :: !order
        end
      | _ -> fail 0 "malformed edge block")
    (find_all "edge" graph_fields);
  let edges = List.rev !order in
  let cap_of src dst =
    let key = if directed then (src, dst) else (min src dst, max src dst) in
    !(Hashtbl.find caps key)
  in
  let links =
    if directed then
      List.mapi
        (fun i (src, dst) ->
          [ Link.make ~id:i ~src ~dst ~capacity:(cap_of src dst) ])
        edges
      |> List.concat
    else
      List.mapi
        (fun i (src, dst) ->
          let capacity = cap_of src dst in
          [ Link.make ~id:(2 * i) ~src ~dst ~capacity;
            Link.make ~id:((2 * i) + 1) ~src:dst ~dst:src ~capacity ])
        edges
      |> List.concat
  in
  let graph = Graph.create ~labels ~nodes:n links in
  Topo.make ~name ~coords ~merged_parallel:!merged
    ~dropped_self_loops:!self_loops graph

(* ------------------------------------------------------------------ *)
(* printing *)

let check_printable what s =
  if String.contains s '"' then
    invalid_arg (Printf.sprintf "Gml.to_gml: %s contains a '\"': %s" what s)

let float_str f = Printf.sprintf "%.17g" f

let to_gml (t : Topo.t) =
  check_printable "name" t.Topo.name;
  let g = t.Topo.graph in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "graph [\n";
  add "  directed 1\n";
  add "  label \"%s\"\n" t.Topo.name;
  for v = 0 to Graph.node_count g - 1 do
    let label = Graph.label g v in
    check_printable "node label" label;
    add "  node [\n";
    add "    id %d\n" v;
    add "    label \"%s\"\n" label;
    (match t.Topo.coords.(v) with
    | None -> ()
    | Some (lon, lat) ->
      add "    Longitude %s\n" (float_str lon);
      add "    Latitude %s\n" (float_str lat));
    add "  ]\n"
  done;
  Array.iter
    (fun (l : Link.t) ->
      add "  edge [\n";
      add "    source %d\n" l.Link.src;
      add "    target %d\n" l.Link.dst;
      add "    capacity %d\n" l.Link.capacity;
      add "  ]\n")
    (Graph.links g);
  add "]\n";
  Buffer.contents buf

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
