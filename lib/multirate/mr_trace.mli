(** Multi-class replayable workloads.

    A workload is a set of call classes, each offering its own demand
    matrix.  Its traces are ordinary {!Arnet_sim.Trace.t}s whose class
    column indexes the workload's classes, so they replay through
    {!Arnet_sim.Engine.run} like any other trace. *)

open Arnet_traffic
open Arnet_sim

type workload = private {
  classes : Call_class.t array;
  demands : Matrix.t array;  (** per class, demand in *calls* (Erlangs) *)
}

val workload : (Call_class.t * Matrix.t) list -> workload
(** @raise Invalid_argument on empty input or mismatched matrix sizes. *)

val nodes : workload -> int

val offered_bandwidth : workload -> float
(** Total offered bandwidth load: [sum_c bandwidth_c * total demand_c]. *)

val of_calls : workload -> duration:float -> (int * Trace.call) list -> Trace.t
(** A hand-built trace: each call tagged with its class index into the
    workload.  The trace's matrix is the sum of the class demands.
    @raise Invalid_argument as {!Arnet_sim.Trace.of_class_calls} does —
    unsorted calls, a call outside [\[0, duration)], a bad holding time
    or [u], bad or equal endpoints, or a class index outside the
    workload. *)

val generate : rng:Rng.t -> duration:float -> workload -> Trace.t
(** Superposed Poisson arrivals over classes and pairs, holding times
    exponential with each class's mean, through
    {!Arnet_sim.Trace.generate_classes}; sorted by time.
    @raise Invalid_argument when total demand is zero or [duration] is
    not positive and finite. *)
