(** The lint driver: run the checks over a configuration and render the
    findings.

    Exit-code contract (mirrored by [arn lint]): [0] when no
    error-severity finding survives (warnings and infos are advisory,
    like compiler warnings without [-warn-error]), [1] when at least one
    error remains — or, under [strict], any finding at all; [2] is
    reserved by the CLI for configurations it cannot even load. *)

val checks : Check.t list
(** The five built-in checks, in the order [arn lint --list] prints
    them: {!Topology_check}, {!Ingest_check}, {!Route_check},
    {!Protection_check}, {!Traffic_check}. *)

val run : ?only:string list -> Check.config -> Diagnostic.t list
(** The findings of every check in {!checks}, or of the [only] named
    ones, sorted errors-first ({!Diagnostic.compare}).
    @raise Invalid_argument ["Lint.run: unknown check NAME"] when
    [only] names no check. *)

val has_errors : Diagnostic.t list -> bool

val exit_code : ?strict:bool -> Diagnostic.t list -> int
(** [0] or [1] per the contract above; [strict] defaults to [false]. *)

val summary : Diagnostic.t list -> string
(** e.g. ["2 errors, 1 warning"] or ["clean"]. *)

val pp_text : Format.formatter -> Diagnostic.t list -> unit
(** One diagnostic per line followed by the summary line. *)

val to_json : Diagnostic.t list -> string
(** The [--format=json] payload: {!Diagnostic.json_of_list} of the
    findings, one compact line (round-trips through
    {!Diagnostic.list_of_json}). *)
