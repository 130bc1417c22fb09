(** Deterministic random streams for the call-by-call simulator.

    Thin wrapper over [Random.State] with the distributions the
    simulator needs and with named substreams, so that e.g. the arrival
    process and any routing randomness are statistically independent yet
    each reproducible from the master seed. *)

type t

val create : seed:int -> t

val substream : t -> string -> t
(** [substream t name] derives an independent stream determined entirely
    by the master seed and [name]. *)

val float : t -> float -> float
(** [float t bound] in [\[0, bound)]. *)

val uniform : t -> float
(** In [\[0, 1)]. *)

val bits53 : t -> int
(** The integer behind one {!float} draw: [float_of_int (bits53 t) *.
    0x1.p-53 *. bound] is bit for bit what [float t bound] would have
    returned from the same state, and both advance the stream alike.  In
    [\[1, 2{^53})].  Returning an int, it crosses a call without boxing,
    so an allocation-free loop can draw {!uniform}, {!float} and
    {!exponential} variates inline. *)

val int : t -> int -> int

val exponential : t -> rate:float -> float
(** Exponentially distributed with the given rate (mean [1 /. rate]).
    @raise Invalid_argument if [rate <= 0]. *)

val poisson : t -> mean:float -> int
(** Poisson sample (inversion for small means, used by test workloads).
    @raise Invalid_argument if [mean <= 0] or [mean > 700]. *)
