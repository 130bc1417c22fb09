(** Link-level admission rules.

    The distributed decision of Section 1: each link accepts a *primary*
    call whenever it has a free circuit, and an *alternate-routed* call
    only while its occupancy is below [capacity - reserve] (equivalently,
    it refuses alternates in its last [reserve + 1] states
    [C - r .. C]).  A path admits a call iff every link on it does.  A
    link of capacity 0 admits nothing; the daemon gives failed links
    capacity 0. *)

open Arnet_paths

type t

val make : capacities:int array -> reserves:int array -> t
(** @raise Invalid_argument if lengths differ or any reserve is outside
    [0 .. capacity]. *)

val unprotected : capacities:int array -> t
(** All reserves zero — uncontrolled alternate routing. *)

val capacities : t -> int array
val reserves : t -> int array

val link_admits_primary : t -> occupancy:int array -> int -> bool
val link_admits_alternate : t -> occupancy:int array -> int -> bool

val path_admits :
  t -> occupancy:int array -> bandwidth:int -> primary:bool -> Path.t -> bool
(** The one path rule: a call of [bandwidth] units fits when every link
    [k] of the path has [occupancy.(k) + bandwidth <= C_k - r_k], with
    [r_k = 0] for a [primary] call.  Occupancy counts bandwidth units. *)

val path_admits_primary : t -> occupancy:int array -> Path.t -> bool
val path_admits_alternate : t -> occupancy:int array -> Path.t -> bool
(** {!path_admits} at [bandwidth = 1], where the rule reads
    [occupancy < C - r]. *)

val alternate_refusal :
  t -> occupancy:int array -> bandwidth:int -> Path.t ->
  (int * int * int) option
(** The first link (in path order) that refuses an alternate-routed
    call of [bandwidth] units, as [(link id, occupancy, threshold)]
    where [threshold = capacity - reserve] and the refusal is
    [occupancy + bandwidth > threshold] (at [bandwidth = 1],
    [occupancy >= threshold]); [None] iff {!path_admits} admits the
    call as an alternate.  This is the explain-side of the admission
    rule, behind {!Controller.narrate}. *)
