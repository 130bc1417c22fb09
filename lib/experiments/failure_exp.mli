(** The failure sweep: per-link failure rate x reservation level x
    {Theorem-1 alternates, Suurballe protection}.

    On the quadrangle at a load where congestion losses are negligible,
    every policy replays identical arrivals *and* identical independent
    link up/down processes ({!Arnet_failure.Model.independent},
    exponential repair) per seed.  Compared, per failure rate:
    Theorem-1 trunk reservation over the full alternate tier
    ([controlled]), no reservation ([uncontrolled]), and the
    protection-path table whose single alternate is the link-disjoint
    Suurballe mate, with ([protected]) and without ([protected-r0])
    reservation — blocking, in-flight calls dropped by cuts, and
    failover admissions.  Deterministic per seed. *)

open Arnet_sim

type cell = {
  scheme : string;
  blocking : Stats.summary;
  dropped : float;  (** mean in-flight calls killed per run *)
  failovers : float;  (** mean admissions around a dead primary per run *)
}

type point = { rate : float; cells : cell list }

type result = point list

val run :
  ?rates:float list -> ?mttr:float -> config:Config.t -> unit -> result
(** [rates] are per-link failure intensities (default
    [0; 0.005; 0.02; 0.05] per time unit; [0] means no script at all);
    [mttr] the mean repair time (default 5).
    @raise Invalid_argument on a negative or non-finite rate or
    [mttr <= 0]. *)

val print : Format.formatter -> result -> unit
