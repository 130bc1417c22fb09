(** Mean-field analysis of the avalanche the paper controls against.

    Section 1: "uncontrolled alternate routing can actually do much
    worse than state-independent routing when the load is beyond a
    certain critical load ... an avalanche effect drives the network
    into a high-blocking operating region", citing the bistability
    analyses of Akinpelu [1] and Gibbens-Hunt-Kelly [10].

    The classical symmetric model: a fully-connected network, direct
    traffic [a] Erlangs per link, and calls blocked on their direct link
    trying one two-link alternate through a random intermediate.  Under
    the independence (mean-field) approximation each link is a
    birth-death chain fed by its direct stream (admitted below [C]) and
    by an overflow stream (admitted below [C - r]).  A blocked call
    makes up to [attempts] two-link alternate tries, stopping at the
    first success; each try succeeds with probability [(1 - B_o)^2]
    under the independence assumption, so the per-link overflow rate is
    [2 a B_d E(tries) (1 - B_o)] with
    [E(tries) = (1 - (1-p)^M) / p], [p = (1 - B_o)^2].  A consistent operating point is a fixed
    point of that map; beyond a critical load the uncontrolled ([r = 0])
    map has two stable fixed points — a low-blocking one reached from a
    cold (idle) network and a high-blocking one reached from a hot
    (congested) network — and sufficient state protection removes the
    high one.  This module computes those fixed points; the
    [ext_bistability] bench section pairs them with a call-by-call
    simulation of the hysteresis. *)

type fixed_point = {
  direct_blocking : float;  (** probability a direct call is blocked *)
  overflow_blocking : float;  (** probability the link refuses an
                                  alternate call (occupancy >= C - r) *)
  overflow_rate : float;  (** self-consistent alternate arrival rate *)
  network_blocking : float;
      (** fraction of calls lost end-to-end: blocked on direct and on
          the attempted alternate *)
  iterations : int;
}

val fixed_point_from :
  ?tolerance:float -> ?max_iterations:int -> ?attempts:int ->
  offered:float -> capacity:int -> reserve:int ->
  [ `Cold | `Hot ] ->
  fixed_point
(** Iterate the mean-field map from an idle ([`Cold]) or saturated
    ([`Hot]) initial state.  [attempts] defaults to 10 (a network the
    size of the NSFNet model, trying every two-link alternate).
    @raise Invalid_argument for nonpositive load, capacity < 1, or
    reserve outside [0, capacity), or if the iteration fails to
    converge. *)

val is_bistable :
  ?gap:float -> ?attempts:int ->
  offered:float -> capacity:int -> reserve:int -> unit -> bool
(** Whether the cold- and hot-start fixed points differ by more than
    [gap] (default 0.01) in network blocking. *)

val critical_load :
  ?lo:float -> ?hi:float -> ?precision:float -> ?attempts:int ->
  capacity:int -> reserve:int -> unit -> float option
(** Smallest load in [\[lo, hi\]] (defaults: 0.5C .. 1.2C, refined to
    [precision], default 0.05 Erlangs) at which the system is bistable;
    [None] if it never is on that range (e.g. with sufficient
    reservation).  Bistability holds on a *band* of loads, so the range
    is scanned, not bisected. *)
