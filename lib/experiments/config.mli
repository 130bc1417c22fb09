(** Shared run configuration for the reproduction experiments.

    The paper's settings: 100 time units of measurement after a 10-unit
    warm-up from an idle network, 10 seeds per point.  [quick] trades
    seeds for turnaround when iterating. *)

type t = {
  seeds : int list;
  duration : float;  (** total simulated time including warm-up *)
  warmup : float;
}

val paper : t
(** 10 seeds, warm-up 10, measurement 100 (duration 110). *)

val quick : t
(** 3 seeds, warm-up 5, measurement 45 (duration 50). *)

val of_env : unit -> t
(** [paper] unless the environment variable [ARNET_QUICK] is set to a
    nonempty value other than ["0"]; [ARNET_SEEDS=n] further overrides
    the seed count (first [n] seeds). *)

val describe : t -> string
