(** The pure half of the daemon's telemetry endpoint: HTTP/1.0 request
    parsing, routing and response rendering, with no sockets and no
    dependencies.

    The socket half lives in the daemon's existing [Unix.select] loop
    (lib/service); this module only decides, given the request line of
    an incoming connection and a route table of body producers, which
    bytes to answer.  Responses are always [Connection: close] with an
    exact [Content-Length] — one request per connection, the simplest
    protocol a scraper (curl, Prometheus) needs. *)

type response = {
  status : int;
  reason : string;
  content_type : string;
  body : string;
}

val text_content_type : string

val prometheus_content_type : string
(** [text/plain; version=0.0.4; charset=utf-8] — the exposition-format
    content type scrapers key on. *)

val json_content_type : string

val ok : content_type:string -> string -> response
val bad_request : string -> response

val parse_request_line : string -> (string * string, string) result
(** [Ok (method, target)] for a well-formed [METHOD TARGET HTTP/x.y]
    line of printable ASCII; [Error detail] otherwise (the detail goes
    into the 400 body). *)

val path_of_target : string -> string
(** Strips [?query] and [#fragment]. *)

val handle :
  routes:(string * (unit -> string * string)) list -> string -> response
(** Dispatch one request line.  [routes] maps a path to a producer
    returning [(content_type, body)], evaluated only when that path is
    hit.  Malformed line → 400; non-GET/HEAD method → 405; unknown
    path → 404; HEAD answers with an empty body and the GET headers. *)

val render : response -> string
(** The bytes on the wire: status line, [Content-Type],
    [Content-Length], [Connection: close], blank line, body. *)
