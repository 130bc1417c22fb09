(** Binary-heap priority queue keyed by simulated time.

    The event core of the simulators that schedule as they go (call
    set-up signalling, the cellular model, the load generator).  Pops
    are in nondecreasing time order; ties pop in unspecified (but
    deterministic) order.  {!Engine.run} needs no queue: every departure
    of a trace is known up front, and it walks the trace's
    [Trace.order].

    Internally a slot-indexed heap: an unboxed [float array] of times
    and an [int array] of slot numbers in heap order, and a payload
    array indexed by slot.  A payload is stored in its slot on push and
    stays put until it is popped, so sifting moves only floats and ints,
    pushes allocate nothing, and each event costs exactly two write
    barriers (the store on push, the null on pop) however deep it
    sifts.  A pop nulls its payload's slot and {!clear} nulls every
    queued one — the queue never keeps a departed payload reachable.

    The [*_at]/[next_due] entry points exist because, without flambda,
    a [float] argument crosses a function boundary boxed: they take a
    [float array] plus an index and read the time inside the callee, so
    an allocation-free caller stays allocation-free. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument when [time] is not finite. *)

val push_at : 'a t -> times:float array -> int -> 'a -> unit
(** [push_at q ~times i x] is [push q ~time:times.(i) x] without boxing
    the time — the hot-path form for callers whose event times already
    live in a float array (e.g. {!Trace} departure deadlines).
    @raise Invalid_argument when [times.(i)] is not finite. *)

val peek_time : 'a t -> float option
(** Earliest queued time without removing it.  Allocates; hot loops
    should use {!next_due}. *)

val next_due : 'a t -> deadlines:float array -> int -> bool
(** [next_due q ~deadlines i] is true when the queue is nonempty and its
    earliest time is [<= deadlines.(i)] — the allocation-free guard for
    a drain loop ([while next_due ... do ... pop_payload ... done]). *)

val pop : 'a t -> (float * 'a) option

val pop_payload : 'a t -> 'a
(** Pops the earliest event, returning only its payload (no tuple, no
    boxed time).  Pair with {!next_due} to know one is due.
    @raise Invalid_argument when the queue is empty. *)

val pop_until : 'a t -> time:float -> f:(float -> 'a -> unit) -> unit
(** Pops and applies [f] to every event with time [<= time], in order. *)

val clear : 'a t -> unit
(** Empties the queue, releasing every queued payload. *)
