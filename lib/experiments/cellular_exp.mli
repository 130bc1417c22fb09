(** Section 3.2's channel-borrowing application, exercised end-to-end:
    a reuse-3 lattice where controlled borrowing (protection levels for
    H = 3) must never do worse than no borrowing, and avoids
    uncontrolled borrowing's high-load collapse. *)

type point = {
  offered : float;  (** Erlangs per cell *)
  no_borrowing : Arnet_sim.Stats.summary;
  uncontrolled : Arnet_sim.Stats.summary;
  controlled : Arnet_sim.Stats.summary;
}

val run :
  ?rows:int -> ?cols:int -> ?capacity:int -> ?offered:float list ->
  ?hot_spot:float ->
  config:Config.t -> unit -> point list
(** [hot_spot] multiplies the load of one corner cell (default 1.5 —
    borrowing only helps under imbalance, as with link-load fluctuations
    in the network case). Defaults: 4x5 grid, C = 50. *)

val print : Format.formatter -> point list -> unit
