(** Generic load sweeps: the backbone of every blocking-vs-load figure. *)

open Arnet_topology
open Arnet_traffic
open Arnet_sim

type point = {
  x : float;  (** the sweep coordinate (offered load or load scale) *)
  bound : float;  (** Erlang cut-set lower bound at this matrix *)
  schemes : (string * Stats.summary) list;  (** per-scheme blocking *)
}

val run :
  config:Config.t ->
  graph:Graph.t ->
  matrix_of:(float -> Matrix.t) ->
  policies_of:(Matrix.t -> Engine.policy list) ->
  xs:float list ->
  point list
(** For each sweep coordinate: build the matrix, build the policies
    (they may depend on the matrix — protection levels and shadow
    prices do), replicate over the config's seeds with shared traces,
    and attach the Erlang bound. *)

val print :
  ?x_label:string -> Format.formatter -> point list -> unit
(** Table with the bound and the per-scheme mean blocking (column order
    from the first point). *)

val scheme_mean : point -> string -> float
(** Mean blocking of a named scheme at a point.
    @raise Not_found when the scheme is absent. *)

val to_csv : ?x_label:string -> point list -> string
(** Comma-separated rendering (header row; mean and stderr columns per
    scheme) for external plotting tools. *)
