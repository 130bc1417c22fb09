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
