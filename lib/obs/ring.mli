(** Bounded keep-newest buffer.

    Keeps the most recent [capacity] items in constant memory, however
    many are pushed.  Over events it is the "flight recorder" for
    interactive debugging: run with a ring attached as a {!sink}, then
    inspect the tail of the stream after something interesting
    happens.  The daemon's slow-command log is another. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** O(1); evicts the oldest item once full. *)

val sink : Event.t t -> Sink.t

val contents : 'a t -> 'a list
(** Oldest first; at most [capacity] items. *)

val capacity : 'a t -> int
val length : 'a t -> int
(** Items currently held. *)

val seen : 'a t -> int
(** Total items ever pushed. *)

val dropped : 'a t -> int
(** [seen - length]: how many fell off the back. *)

val clear : 'a t -> unit
