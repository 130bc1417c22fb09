(** Per-link implied costs (shadow prices) in the style of Ott &
    Krishnan [34].

    For an M/M/C/C link fed by Poisson primary traffic of intensity
    [nu], the expected number of *future primary calls lost* because one
    extra circuit is seized while the link holds [s] calls is exactly

    {v p(s) = B(nu, C) / B(nu, s) v}

    (first-passage analysis of the birth-death chain — the same quantity
    Theorem 1 upper-bounds in the presence of overflow traffic).  The
    Ott-Krishnan separable routing rule prices a path as the sum of its
    link prices at the current states and admits the call on the cheapest
    path when that price is below the call's revenue (1 for the paper's
    single-rate calls). *)

type t
(** Precomputed price table for one link. *)

val make : offered:float -> capacity:int -> t
(** [make ~offered ~capacity] precomputes [p(s)] for
    [s = 0 .. capacity - 1] with the *unreduced* primary intensity, the
    variant the paper simulates.
    @raise Invalid_argument if [offered <= 0] or [capacity < 1]. *)

val price : t -> int -> float
(** [price t s] for occupancy [s]; [infinity] when [s >= capacity]
    (the link cannot accept at all). *)

val capacity : t -> int
val offered : t -> float

val row : t -> float array
(** [row t] holds [price t s] at index [s] for [s = 0 .. capacity]:
    the finite prices below capacity and [infinity] at [capacity].  A
    fresh array, built once so that a per-call path pricer can index
    it by occupancy. *)
