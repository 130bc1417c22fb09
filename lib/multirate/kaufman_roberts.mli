(** The Kaufman-Roberts recursion: exact occupancy distribution of a
    single link shared by independent Poisson classes under complete
    sharing.

    For classes [k] with offered load [a_k] Erlangs and bandwidth [b_k],
    the stationary probability [q(j)] that [j] capacity units are busy
    satisfies

    {v j * q(j) = sum_k a_k * b_k * q(j - b_k) v}

    and class [k]'s blocking is [sum_{j > C - b_k} q(j)].  With a single
    class of bandwidth 1 this reduces to the Erlang distribution, which
    the tests exploit.  This is the natural multi-rate analogue of the
    Erlang machinery the paper's protection levels are built on. *)

type class_load = { offered : float; bandwidth : int }

val distribution : capacity:int -> class_load list -> float array
(** [q(0) .. q(capacity)], summing to 1.
    @raise Invalid_argument on empty classes, nonpositive loads,
    bandwidths outside [1 .. capacity], or [capacity < 1]. *)

val class_blocking : capacity:int -> class_load list -> float list
(** Per class (input order): probability an arriving call of that class
    finds fewer than [bandwidth] free units. *)

val mean_occupied : capacity:int -> class_load list -> float
(** Expected busy capacity units. *)

val reservation_blocking :
  capacity:int -> reserve:int -> class_load list -> float list
(** Per-class blocking when the top [reserve] units are barred to *all*
    of these classes (the protected-link view of alternate-routed
    multi-rate traffic): computed exactly on the truncated chain, i.e.
    [class_blocking ~capacity:(capacity - reserve)].  This is the
    admission rule the multi-rate controlled scheme enforces. *)
