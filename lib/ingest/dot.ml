open Arnet_topology

exception Error of string

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Error (Printf.sprintf "dot:%d: %s" line s))) fmt

(* ------------------------------------------------------------------ *)
(* lexing *)

type tok =
  | Lbrace
  | Rbrace
  | Lbrack
  | Rbrack
  | Semi
  | Comma
  | Eq
  | Arrow  (* -> *)
  | Undir  (* -- *)
  | Id of string

let is_id_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '+' -> true
  | _ -> false

let tokenize s =
  let n = String.length s in
  let toks = ref [] and line = ref 1 and i = ref 0 in
  let push t = toks := (!line, t) :: !toks in
  while !i < n do
    (match s.[!i] with
    | '\n' -> incr line; incr i
    | ' ' | '\t' | '\r' -> incr i
    | '#' -> while !i < n && s.[!i] <> '\n' do incr i done
    | '/' when !i + 1 < n && s.[!i + 1] = '/' ->
      while !i < n && s.[!i] <> '\n' do incr i done
    | '/' when !i + 1 < n && s.[!i + 1] = '*' ->
      let l0 = !line in
      i := !i + 2;
      let closed = ref false in
      while not !closed do
        if !i + 1 >= n then fail l0 "unterminated /* comment"
        else if s.[!i] = '*' && s.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else begin
          if s.[!i] = '\n' then incr line;
          incr i
        end
      done
    | '{' -> push Lbrace; incr i
    | '}' -> push Rbrace; incr i
    | '[' -> push Lbrack; incr i
    | ']' -> push Rbrack; incr i
    | ';' -> push Semi; incr i
    | ',' -> push Comma; incr i
    | '=' -> push Eq; incr i
    | '-' when !i + 1 < n && s.[!i + 1] = '>' -> push Arrow; i := !i + 2
    | '-' when !i + 1 < n && s.[!i + 1] = '-' -> push Undir; i := !i + 2
    | '-' ->
      (* a negative number: lex like an identifier *)
      let start = !i in
      incr i;
      while !i < n && is_id_char s.[!i] do incr i done;
      push (Id (String.sub s start (!i - start)))
    | '"' ->
      let l0 = !line in
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while not !closed do
        if !i >= n then fail l0 "unterminated string"
        else
          match s.[!i] with
          | '"' -> closed := true; incr i
          | '\\' when !i + 1 < n ->
            Buffer.add_char buf s.[!i + 1];
            i := !i + 2
          | c ->
            if c = '\n' then incr line;
            Buffer.add_char buf c;
            incr i
      done;
      push (Id (Buffer.contents buf))
    | c when is_id_char c ->
      let start = !i in
      while !i < n && is_id_char s.[!i] do incr i done;
      push (Id (String.sub s start (!i - start)))
    | c -> fail !line "unexpected character %C" c)
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* parsing *)

type attr = string * string

let rec parse_attr_items toks acc : attr list * (int * tok) list =
  match toks with
  | (_, Rbrack) :: rest -> (List.rev acc, rest)
  | (_, Comma) :: rest | (_, Semi) :: rest -> parse_attr_items rest acc
  | (line, Id key) :: rest -> (
    match rest with
    | (_, Eq) :: (_, Id v) :: rest -> parse_attr_items rest ((key, v) :: acc)
    | _ -> fail line "expected %s=value in attribute list" key)
  | (line, _) :: _ -> fail line "malformed attribute list"
  | [] -> fail 0 "unterminated attribute list"

let parse_attrs toks =
  match toks with
  | (_, Lbrack) :: rest -> parse_attr_items rest []
  | _ -> ([], toks)

type builder = {
  names : (string, int) Hashtbl.t;
  mutable rev_labels : string list;
  mutable rev_coords : (float * float) option list;
  mutable node_count : int;
  arcs : (int * int, int ref) Hashtbl.t;
  mutable rev_arc_order : (int * int) list;
  mutable merged : int;
  mutable self_loops : int;
}

let new_builder () =
  { names = Hashtbl.create 64;
    rev_labels = [];
    rev_coords = [];
    node_count = 0;
    arcs = Hashtbl.create 64;
    rev_arc_order = [];
    merged = 0;
    self_loops = 0 }

let node_of b name =
  match Hashtbl.find_opt b.names name with
  | Some v -> v
  | None ->
    let v = b.node_count in
    Hashtbl.add b.names name v;
    b.node_count <- v + 1;
    b.rev_labels <- name :: b.rev_labels;
    b.rev_coords <- None :: b.rev_coords;
    v

let set_node_attrs b line v attrs =
  let lookup k = List.assoc_opt k attrs in
  (match lookup "label" with
  | None -> ()
  | Some label ->
    let labels = Array.of_list (List.rev b.rev_labels) in
    labels.(v) <- label;
    b.rev_labels <- List.rev (Array.to_list labels));
  match (lookup "lon", lookup "lat") with
  | None, None -> ()
  | Some lon, Some lat -> (
    match (float_of_string_opt lon, float_of_string_opt lat) with
    | Some x, Some y ->
      let coords = Array.of_list (List.rev b.rev_coords) in
      coords.(v) <- Some (x, y);
      b.rev_coords <- List.rev (Array.to_list coords)
    | _ -> fail line "bad lon/lat")
  | _ -> fail line "need both lon and lat"

let capacity_of_attrs line attrs =
  let numeric k =
    match List.assoc_opt k attrs with
    | None -> None
    | Some v -> (
      match float_of_string_opt v with
      | Some f when Float.is_finite f && f >= 0. ->
        Some (int_of_float (Float.round f))
      | Some _ -> fail line "negative or non-finite capacity"
      | None -> None)
  in
  match numeric "capacity" with
  | Some c -> Some c
  | None -> numeric "label"

let add_arc b src dst cap =
  if src = dst then b.self_loops <- b.self_loops + 1
  else
    match Hashtbl.find_opt b.arcs (src, dst) with
    | Some r ->
      r := !r + cap;
      b.merged <- b.merged + 1
    | None ->
      Hashtbl.add b.arcs (src, dst) (ref cap);
      b.rev_arc_order <- (src, dst) :: b.rev_arc_order

let default_stmt_keywords = [ "node"; "edge"; "graph" ]

let parse text =
  let toks = tokenize text in
  let toks =
    match toks with (_, Id "strict") :: rest -> rest | _ -> toks
  in
  let default_undirected, toks =
    match toks with
    | (_, Id "digraph") :: rest -> (false, rest)
    | (_, Id "graph") :: rest -> (true, rest)
    | (line, _) :: _ -> fail line "expected 'digraph' or 'graph'"
    | [] -> fail 0 "empty input"
  in
  let name, toks =
    match toks with
    | (_, Id name) :: rest -> (name, rest)
    | _ -> ("dot", toks)
  in
  let toks =
    match toks with
    | (_, Lbrace) :: rest -> rest
    | (line, _) :: _ -> fail line "expected '{'"
    | [] -> fail 0 "expected '{'"
  in
  let b = new_builder () in
  let rec stmts toks =
    match toks with
    | (_, Rbrace) :: rest -> rest
    | (_, Semi) :: rest -> stmts rest
    | (_, Id kw) :: (_, Lbrack) :: rest
      when List.mem kw default_stmt_keywords ->
      (* default-attribute statement: parse and discard *)
      let _, rest = parse_attr_items rest [] in
      stmts rest
    | (_, Id _) :: (_, Eq) :: (_, Id _) :: rest ->
      (* top-level graph attribute, e.g. rankdir=LR: ignored *)
      stmts rest
    | (line, Id first) :: rest ->
      (* node statement or edge chain *)
      let rec chain acc toks =
        match toks with
        | (_, Arrow) :: (_, Id next) :: rest ->
          chain ((next, false) :: acc) rest
        | (_, Undir) :: (_, Id next) :: rest ->
          chain ((next, true) :: acc) rest
        | _ -> (List.rev acc, toks)
      in
      let hops, rest = chain [] rest in
      let attrs, rest = parse_attrs rest in
      if hops = [] then begin
        let v = node_of b first in
        set_node_attrs b line v attrs
      end
      else begin
        let cap =
          match capacity_of_attrs line attrs with
          | Some c -> c
          | None -> Gml.default_capacity
        in
        let both_dirs = List.assoc_opt "dir" attrs = Some "both" in
        let src = ref (node_of b first) in
        List.iter
          (fun (next, undirected_op) ->
            let dst = node_of b next in
            let undirected =
              undirected_op || default_undirected || both_dirs
            in
            add_arc b !src dst cap;
            if undirected then add_arc b dst !src cap;
            src := dst)
          hops
      end;
      stmts rest
    | (line, _) :: _ -> fail line "malformed statement"
    | [] -> fail 0 "missing '}'"
  in
  let rest = stmts toks in
  (match rest with
  | [] -> ()
  | (line, _) :: _ -> fail line "trailing tokens after '}'");
  if b.node_count = 0 then fail 0 "graph has no nodes";
  let labels = Array.of_list (List.rev b.rev_labels) in
  let coords = Array.of_list (List.rev b.rev_coords) in
  let links =
    List.mapi
      (fun i (src, dst) ->
        Link.make ~id:i ~src ~dst ~capacity:!(Hashtbl.find b.arcs (src, dst)))
      (List.rev b.rev_arc_order)
  in
  let graph = Graph.create ~labels ~nodes:b.node_count links in
  Topo.make ~name ~coords ~merged_parallel:b.merged
    ~dropped_self_loops:b.self_loops graph

(* ------------------------------------------------------------------ *)
(* printing *)

let check_printable what s =
  if String.contains s '"' || String.contains s '\\' then
    invalid_arg (Printf.sprintf "Dot.to_dot: %s contains '\"' or '\\': %s" what s)

let float_str f = Printf.sprintf "%.17g" f

let to_dot (t : Topo.t) =
  check_printable "name" t.Topo.name;
  let g = t.Topo.graph in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph \"%s\" {\n" t.Topo.name;
  for v = 0 to Graph.node_count g - 1 do
    let label = Graph.label g v in
    check_printable "node label" label;
    (match t.Topo.coords.(v) with
    | None -> add "  n%d [label=\"%s\"];\n" v label
    | Some (lon, lat) ->
      add "  n%d [label=\"%s\", lon=\"%s\", lat=\"%s\"];\n" v label
        (float_str lon) (float_str lat))
  done;
  Array.iter
    (fun (l : Link.t) ->
      add "  n%d -> n%d [capacity=%d];\n" l.Link.src l.Link.dst
        l.Link.capacity)
    (Graph.links g);
  add "}\n";
  Buffer.contents buf

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
