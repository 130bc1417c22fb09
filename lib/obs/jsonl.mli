(** JSON-lines trace files: one {!Event.t} per line.

    The durable form of the event stream — [arn simulate --trace]
    writes one, [arn trace summarize] folds one back.  Writing is
    line-buffered through the channel; reading is streaming, so
    arbitrarily long traces summarize in constant memory. *)

val sink_of_file : string -> Sink.t
(** Truncate-open [path]; events append as single lines, and
    [Sink.close] flushes and closes the file. *)

val fold_file :
  string -> init:'a -> f:('a -> Event.t -> 'a) -> 'a
(** Fold over every event in the file, in order; blank lines are
    skipped.
    @raise Jsonu.Parse_error (prefixed with [path:line]) on a malformed
    line.
    @raise Sys_error when the file cannot be read. *)

val read_file : string -> Event.t list
(** Materialize a whole trace (tests and small files). *)
