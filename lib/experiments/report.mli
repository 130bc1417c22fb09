(** Plain-text reporting helpers shared by the bench harness, the CLI
    and the examples.  Everything prints to a formatter so tests can
    capture output. *)

val section : Format.formatter -> id:string -> title:string -> unit
(** A banner like [=== fig3: Blocking for a fully-connected quadrangle ===]. *)

val note : Format.formatter -> string -> unit

val series_header : Format.formatter -> columns:string list -> unit
(** Fixed-width header row. *)

val series_row : Format.formatter -> x:float -> float list -> unit
(** One sweep point: an x value followed by y values, all to 4 decimal
    places in scientific-friendly fixed width. *)

val series_row_s : Format.formatter -> x:string -> float list -> unit

val paper_vs_measured :
  Format.formatter -> what:string -> paper:string -> measured:string -> unit

val pct : float -> string
(** Blocking probability as a percentage with sensible precision. *)

val timed : Arnet_obs.Span.recorder -> string -> (unit -> 'a) -> 'a
(** Run a harness section under a wall-clock span, tagging it with the
    number of simulated calls replayed while it ran ([calls], from
    [Engine.calls_simulated]) and the implied [calls_per_s].  Each
    span also carries the GC dimension: [minor_words] and
    [major_words] ([Gc.quick_stat] deltas over the section, in words)
    and, when any calls were simulated, the derived
    [minor_words_per_call] — so allocation regressions in the hot path
    show up in the bench trajectory, not just wall-clock.  Note the
    deltas cover the whole section (trace generation, table builds and
    reporting included), not the engine loop alone.  The span is
    recorded (and the odometer read) even when the section raises. *)
