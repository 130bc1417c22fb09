(** The daemon's line-oriented wire protocol.

    One command per line from the client, one response line back — the
    shape of the classic text control protocols (SMTP, redis inline)
    so a session is drivable from [nc].  The codec is pure: printing
    then parsing any command or response yields the original value
    (the qcheck round-trip property in [test/test_service.ml]), and
    malformed input parses to a typed error, never an exception.

    Grammar (one space between tokens, LF-terminated):

    {v
    SETUP <src> <dst> [<time>]      admit a call src -> dst (virtual time)
    TEARDOWN <id>                   release an admitted call
    FAIL <link>                     fail a link by id (drops calls on it)
    REPAIR <link>                   bring a failed link back
    RELOAD                          recompute protection levels r^k now
    LINK ADD <src> <dst> <cap>      add a link and rebuild the routes
    LINK DEL <src> <dst>            remove a link and rebuild the routes
    STATS                           one-line state summary
    DRAIN                           stop admitting; exit when empty
    QUIT                            close this connection
    HELLO <mode>                    negotiate the framing (line | binary)

    ADMITTED <id> <n0-n1-...-nk>    call admitted on that node path
    BLOCKED                         call refused (no admissible path)
    OK                              generic success
    RELOADED <changed>              r^k recomputed; links that changed
    PATCHED <pairs>                 routes rebuilt; pairs it can affect
    STATS accepted=..blocked=..     the summary (see {!stats})
    ERR <code> <detail>             typed error, code is one token
    v} *)

type command =
  | Setup of { src : int; dst : int; time : float option }
      (** [time] is the call's virtual arrival instant; omitted means
          "now" (the daemon's clock does not advance). *)
  | Teardown of { id : int }
  | Fail of { link : int }
  | Repair of { link : int }
  | Reload
  | Link_add of { src : int; dst : int; capacity : int }
      (** Add one directed link and patch the route table
          ({!Arnet_paths.Route_table.patch}); a removed link of the
          pair comes back under its id, any other gets the next free
          id. *)
  | Link_del of { src : int; dst : int }
      (** Remove the directed link [src -> dst]: active calls holding
          it are dropped, the link stays at its id with capacity 0, and
          the route table is patched
          ({!Arnet_paths.Route_table.patch}).  No link id moves. *)
  | Stats
  | Drain
  | Quit
  | Hello of { mode : string }
      (** Framing negotiation, handled by the transport (the server
          loop), never by {!Session}: [HELLO binary] answers [OK] and
          switches the connection to the {!Bwire} batch framing;
          [HELLO line] answers [OK] and is a no-op.  [mode] is one
          verbatim token (matched case-insensitively by the server). *)

type stats = {
  accepted : int;  (** calls admitted since start *)
  blocked : int;  (** calls refused *)
  torn_down : int;  (** calls released by TEARDOWN *)
  dropped : int;  (** calls killed by link failures *)
  failovers : int;  (** calls admitted around a failed primary path *)
  active : int;  (** calls currently holding circuits *)
  reloads : int;  (** protection-level recomputations *)
  failed : int list;  (** currently failed link ids, ascending *)
  draining : bool;
}

type response =
  | Admitted of { id : int; path : int list }
      (** [path] is the node sequence, at least two nodes. *)
  | Blocked
  | Done
  | Reloaded of { changed : int }
  | Patched of { recomputed : int }
      (** Route table patched; [recomputed] counts the ordered pairs
          the change can affect ({!Arnet_paths.Route_table.patch}). *)
  | Stats_reply of stats
  | Err of { code : string; detail : string }
      (** [code] is a single lowercase token ([bad-command],
          [bad-argument], [unknown-call], [no-such-link], [link-exists],
          [draining]); [detail] is free text without newlines. *)

val print_command : command -> string
(** Without the trailing newline.
    @raise Invalid_argument on a non-finite or negative [Setup] time,
    or a {!Hello} mode that is empty or not a single token. *)

val parse_command : string -> (command, string * string) result
(** [Error (code, detail)] mirrors the payload of {!Err}.  The line is
    trimmed and split on spaces; verbs match case-insensitively and
    integers are read by [int_of_string].  Every line gets [Ok] or a
    typed [Error], never an exception, and an [Ok] command prints back
    to a line that parses to it again. *)

val print_response : response -> string
(** @raise Invalid_argument on an {!Admitted} path shorter than two
    nodes, an {!Err} code containing spaces, or a detail containing a
    newline. *)

val parse_response : string -> (response, string) result

val equal_command : command -> command -> bool
val equal_response : response -> response -> bool
