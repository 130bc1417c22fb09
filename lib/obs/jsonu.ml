type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing *)

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

(* %.17g round-trips every finite double; trim the common integral case
   so traces stay readable *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parsing — recursive descent over the subset we emit *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail reason =
    raise (Parse_error (Printf.sprintf "%s at offset %d" reason !pos))
  in
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
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
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
        | Some '/' -> Buffer.add_char buf '/'; advance (); loop ()
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
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') ->
        advance ();
        digits ()
      | _ -> ()
    in
    digits ();
    (match peek () with
    | Some '.' ->
      is_float := true;
      advance ();
      digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    if !pos = start then fail "expected number";
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad float"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        (* out-of-range integer literal: fall back to float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad integer")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (parse_string ())
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | _ -> fail "unexpected input"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (advance (); Obj [])
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
          Obj (List.rev ((key, v) :: acc))
        | _ -> fail "expected ',' or '}' in object"
      in
      members []
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (advance (); List [])
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
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' in array"
      in
      elements []
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

(* ------------------------------------------------------------------ *)
(* accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let member_exn key v =
  match member key v with
  | Some v -> v
  | None -> raise (Parse_error ("missing field " ^ key))

let as_int = function
  | Int i -> i
  | _ -> raise (Parse_error "expected integer")

let as_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> raise (Parse_error "expected number")

let as_string = function
  | String s -> s
  | _ -> raise (Parse_error "expected string")

let as_bool = function
  | Bool b -> b
  | _ -> raise (Parse_error "expected boolean")

let as_list = function
  | List items -> items
  | _ -> raise (Parse_error "expected array")
