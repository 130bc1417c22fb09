type counter = { mutable c : float }
type gauge = { mutable g : float }

type histogram = {
  upper : float array;  (* finite upper bounds, strictly increasing *)
  bucket_counts : int array;  (* length upper + 1; last = overflow *)
  mutable sum : float;
  mutable count : int;
}

type value = C of counter | G of gauge | H of histogram

type series = { labels : (string * string) list; value : value }

type family = {
  help : string;
  kind : string;  (* "counter" | "gauge" | "histogram" *)
  by_labels : ((string * string) list, series) Hashtbl.t;
  mutable rev_series : series list;  (* insertion order, reversed *)
}

type t = {
  families : (string, family) Hashtbl.t;
  mutable names : string list;  (* insertion order, reversed *)
}

let create () = { families = Hashtbl.create 16; names = [] }

(* ------------------------------------------------------------------ *)
(* name and label validation (Prometheus exposition rules) *)

let valid_metric_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let valid_label_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let check_labels name labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg
          (Printf.sprintf "Metrics.%s: bad label name %S" name k))
    labels;
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register t ~name ~labels ~help ~kind ~make ~cast =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Metrics.register: bad metric name %S" name);
  let labels = check_labels "register" labels in
  let fam =
    match Hashtbl.find_opt t.families name with
    | Some fam ->
      if fam.kind <> kind then
        invalid_arg
          (Printf.sprintf
             "Metrics.register: %s already registered as a %s" name fam.kind);
      fam
    | None ->
      let fam =
        { help; kind; by_labels = Hashtbl.create 8; rev_series = [] }
      in
      Hashtbl.add t.families name fam;
      t.names <- name :: t.names;
      fam
  in
  match Hashtbl.find_opt fam.by_labels labels with
  | Some s -> (
    match cast s.value with
    | Some v -> v
    | None -> assert false (* same family, same kind *))
  | None ->
    let s = { labels; value = make () } in
    Hashtbl.add fam.by_labels labels s;
    fam.rev_series <- s :: fam.rev_series;
    match cast s.value with Some v -> v | None -> assert false

let counter t ?(labels = []) ?(help = "") name =
  register t ~name ~labels ~help ~kind:"counter"
    ~make:(fun () -> C { c = 0. })
    ~cast:(function C c -> Some c | _ -> None)

let gauge t ?(labels = []) ?(help = "") name =
  register t ~name ~labels ~help ~kind:"gauge"
    ~make:(fun () -> G { g = 0. })
    ~cast:(function G g -> Some g | _ -> None)

let histogram t ?(labels = []) ?(help = "") ~buckets name =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Metrics.histogram: no buckets";
  for i = 0 to n - 1 do
    if not (Float.is_finite buckets.(i)) then
      invalid_arg "Metrics.histogram: non-finite bucket bound";
    if i > 0 && buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Metrics.histogram: bounds must increase strictly"
  done;
  let h =
    register t ~name ~labels ~help ~kind:"histogram"
      ~make:(fun () ->
        H
          { upper = Array.copy buckets;
            bucket_counts = Array.make (n + 1) 0;
            sum = 0.;
            count = 0 })
      ~cast:(function H h -> Some h | _ -> None)
  in
  if h.upper <> buckets then
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %s re-registered with different \
                       buckets" name);
  h

let log_buckets ~lo ~hi ~per_decade =
  if lo <= 0. || hi <= lo then
    invalid_arg "Metrics.log_buckets: need 0 < lo < hi";
  if per_decade < 1 then
    invalid_arg "Metrics.log_buckets: per_decade must be >= 1";
  let step = 10. ** (1. /. float_of_int per_decade) in
  let rec build acc b =
    if b >= hi *. (1. +. 1e-12) then List.rev (hi :: acc)
    else build (b :: acc) (b *. step)
  in
  (* regenerate bounds from lo by repeated multiplication; snap the last
     to hi so the range is covered exactly *)
  let bounds = build [] lo in
  let arr = Array.of_list bounds in
  (* deduplicate the tail in case hi lands on the grid *)
  let n = Array.length arr in
  if n >= 2 && arr.(n - 1) <= arr.(n - 2) then Array.sub arr 0 (n - 1) else arr

(* ------------------------------------------------------------------ *)
(* updates *)

let inc_by c by =
  if by < 0. then invalid_arg "Metrics.inc_by: counters only go up";
  c.c <- c.c +. by

let inc c = inc_by c 1.
let counter_value c = c.c

let set g v = g.g <- v
let add g v = g.g <- g.g +. v
let gauge_value g = g.g

let observe h v =
  h.sum <- h.sum +. v;
  h.count <- h.count + 1;
  let n = Array.length h.upper in
  (* linear scan: bucket counts are small and fixed *)
  let rec find i = if i >= n || v <= h.upper.(i) then i else find (i + 1) in
  let i = find 0 in
  h.bucket_counts.(i) <- h.bucket_counts.(i) + 1

let histogram_count h = h.count
let histogram_sum h = h.sum

let histogram_buckets h =
  let cumulative = ref 0 in
  let finite =
    Array.to_list
      (Array.mapi
         (fun i upper ->
           cumulative := !cumulative + h.bucket_counts.(i);
           (upper, !cumulative))
         h.upper)
  in
  finite @ [ (infinity, h.count) ]

(* ------------------------------------------------------------------ *)
(* rendering *)

let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape_label_value s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '\\' when !i + 1 < n -> (
      incr i;
      match s.[!i] with
      | '\\' -> Buffer.add_char buf '\\'
      | '"' -> Buffer.add_char buf '"'
      | 'n' -> Buffer.add_char buf '\n'
      | c ->
        (* not an escape we emit: keep both characters verbatim *)
        Buffer.add_char buf '\\';
        Buffer.add_char buf c)
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

(* HELP text has its own (smaller) escape set in the exposition format:
   backslash and newline only — a raw newline would otherwise break the
   line-oriented parse of every scraper *)
let escape_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels labels =
  match labels with
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let prom_float f =
  if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_nan f then "NaN"
  else Jsonu.float_to_string f

let names_in_order t = List.rev t.names

let to_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let fam = Hashtbl.find t.families name in
      if fam.help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" name (escape_help fam.help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name fam.kind);
      List.iter
        (fun s ->
          match s.value with
          | C { c } ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name (render_labels s.labels)
                 (prom_float c))
          | G { g } ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name (render_labels s.labels)
                 (prom_float g))
          | H h ->
            List.iter
              (fun (upper, cumulative) ->
                let labels = s.labels @ [ ("le", prom_float upper) ] in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" name
                     (render_labels labels) cumulative))
              (histogram_buckets h);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" name (render_labels s.labels)
                 (prom_float h.sum));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" name (render_labels s.labels)
                 h.count))
        (List.rev fam.rev_series))
    (names_in_order t);
  Buffer.contents buf
