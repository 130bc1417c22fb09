(** The NSFNet T3 "Internet model" experiments — Table 1, Figures 6/7,
    and the Section 4.2.2 variations (H = 6, link failures, fairness).

    The nominal traffic matrix is reconstructed from Table 1's published
    per-link primary loads (see {!Arnet_traffic.Fit}); other loads scale
    it linearly, with the paper's "Load = 10" nominal point mapped to
    scale 1. *)

open Arnet_paths
open Arnet_traffic

val nominal : unit -> Route_table.t * Matrix.t
(** Unrestricted (H = 11) route table over the backbone and the fitted
    nominal matrix.  Recomputed on each call (cheap, deterministic). *)

val run :
  ?h:int ->
  ?scales:float list ->
  ?failed_links:(int * int) list ->
  ?with_ott_krishnan:bool ->
  config:Config.t ->
  unit ->
  Sweep.point list
(** Blocking-vs-load sweep.  [h] caps alternate lengths (default 11,
    the unrestricted case of Figures 6/7); [failed_links] removes
    directed links before routing (Section 4.2.2 "Link failures");
    [with_ott_krishnan] (default true when [failed_links] is empty)
    adds the shadow-price comparator. *)

val print : Format.formatter -> Sweep.point list -> unit

(** {1 Table 1} *)

type table1_row = {
  src : int;
  dst : int;
  capacity : int;
  paper_load : float;
  fitted_load : float;
  paper_r6 : int;
  our_r6 : int;
  paper_r11 : int;
  our_r11 : int;
}

val table1 : unit -> table1_row list
(** One row per directed backbone link, paper values alongside ours
    (ours computed from the fitted matrix via Equation 1 and
    Section 3.1). *)

val print_table1 : Format.formatter -> table1_row list -> unit

(** {1 Fairness (per-O-D blocking skew)} *)

type skew_row = { scheme : string; skew : Arnet_sim.Stats.skew }

val fairness : ?h:int -> config:Config.t -> unit -> skew_row list
(** Per-pair blocking skew at nominal load with H = 6 (the paper's
    setting): single-path most skewed, uncontrolled least, controlled
    in between. *)

val print_fairness : Format.formatter -> skew_row list -> unit
