(** Source-level domain-safety linter behind [arn lint --source].

    The pass parses every [.ml] file under the scanned directories with
    compiler-libs ([Parse.implementation] — no ppx, no build plugin),
    inventories the shared-mutable-state sites each unit allocates at
    module-initialization time, classifies each site by the guard that
    makes (or fails to make) it safe under OCaml 5 domains, and
    intersects the unguarded ones with the set of modules reachable
    from domain-spawning entry points ({!Modgraph}).  Findings are
    ordinary {!Diagnostic} values ([Src] locations, stable [SRC0xx]
    codes) and flow through the same text/JSON renderers and exit-code
    contract as the configuration checks.

    What counts as a site: anything mutable allocated {e outside} a
    function body — top-level [ref]s and [lazy]s, [Hashtbl]/[Buffer]/
    [Queue]/[Stack]/[Bytes]/[Weak] containers, nonempty arrays, record
    values with mutable fields — plus ambient-state mutations such as
    [Random.self_init] or [Printexc.register_printer].  Expressions
    under [fun]/[function] are evaluated per call and are therefore
    worker-local by construction (the seed-major regeneration idiom of
    [Arnet_sim.Engine.replicate_grid]); the walk does not descend into
    them.

    Guards recognized: [Atomic.make] ([SRC101] info), a record carrying
    its own [Mutex.t] field or a site used exclusively inside
    [Mutex.protect]-style applications ([SRC102] info), and
    [Domain.DLS.new_key] ([SRC103] info).  Unguarded sites are errors
    when their unit is domain-reachable and warnings otherwise; every
    finding can only be silenced by a matching {!Allowlist} entry, and
    entries matching nothing are themselves reported ([SRC008]). *)

type kind =
  | Ref_cell
  | Lazy_block
  | Container of string  (** e.g. ["Hashtbl"] *)
  | Array_value
  | Mutable_record of string  (** the record type's name *)
  | Dls_slot
  | Ambient of string  (** the mutating function, e.g. ["Sys.set_signal"] *)

type guard = Unguarded | Atomic | Mutex_protected | Domain_local

type site = {
  file : string;
  line : int;
  modname : string;  (** capitalized unit name *)
  ident : string;
      (** top-level binding holding the site ([Sub.x] inside submodules,
          the ambient function path for {!Ambient} sites, ["_"] for
          unnamed initializers) *)
  kind : kind;
  guard : guard;
}

type unit_info = {
  u_file : string;
  u_modname : string;
  u_sites : site list;
  u_deps : string list;
  u_spawn_entries : string list;
  u_calls : (string * string) list;
  u_error : (int * string) option;
      (** set when the file does not parse ([SRC007]) *)
}

val codes : (string * string) list
(** Every [SRCxxx] code with its one-line meaning — the table behind
    [arn lint --list] and the TUTORIAL. *)

val scan_string : ?filename:string -> string -> unit_info
(** Scan one unit from an in-memory source (tests use this). *)

val scan_file : string -> unit_info

val ml_files_under : string list -> string list
(** Every [.ml] under the given directories, depth-first, skipping
    [_build] and dot-directories, sorted within each directory. *)

val scan_dirs : string list -> unit_info list

val domain_reachable : unit_info list -> string list
(** Module names reachable from domain-spawning entry points, sorted
    (see {!Modgraph.domain_reachable}). *)

val report :
  ?allow:Allowlist.t ->
  ?allow_file:string ->
  unit_info list ->
  Diagnostic.t list
(** Classify every site against the reachability set and the allowlist;
    sorted errors-first.  [allow_file] (default ["lint/allow.sexp"]) is
    only used as the location of [SRC008] stale-entry findings and in
    message texts. *)

val run : ?allow_file:string -> dirs:string list -> unit -> Diagnostic.t list
(** [scan_dirs] + [report], loading the allowlist from [allow_file]
    when given.
    @raise Allowlist.Parse_error on a malformed allowlist.
    @raise Sys_error when a directory or the allowlist cannot be read. *)
