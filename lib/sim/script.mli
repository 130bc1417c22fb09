(** Timed failure scripts.

    A script is the ground truth of a failure scenario: a time-sorted
    sequence of [FAIL]/[REPAIR] events over link ids.  Generators
    ([Arnet_failure.Model]) compile stochastic failure processes down to
    scripts, the replay loop ({!Engine.run} [~script]) replays them
    against a simulation run, and [arn serve --failure-script] replays
    the same file against the live daemon — one artifact, three
    consumers, so a scenario observed in a benchmark can be re-run
    bit-identically in a test.

    The text format is one event per line,

    {v
    # capacity maintenance window
    5 FAIL 0
    5 FAIL 1
    20 REPAIR 0
    20 REPAIR 1
    v}

    i.e. [<time> FAIL|REPAIR <link-id>] separated by blanks; [#] starts
    a comment line and empty lines are ignored.  Times are simulated
    (virtual) time, not wall clock.  [parse ∘ print = id]. *)

type action = Fail | Repair

type event = { time : float; link : int; action : action }

type t
(** A validated script: events sorted by time, ties kept in the order
    given (so [FAIL] then [REPAIR] of one link at the same instant means
    exactly that). *)

val empty : t

val of_events : event list -> t
(** Sorts by time (stable).
    @raise Invalid_argument when a time is negative or not finite, or a
    link id is negative. *)

val events : t -> event list

val to_array : t -> event array
(** Fresh copy, time-sorted — the replay-cursor view. *)

val length : t -> int
val is_empty : t -> bool

val max_link : t -> int
(** Largest link id mentioned; [-1] for the empty script.  Consumers
    check it against their graph's link count before replaying. *)

val merge : t -> t -> t
(** Superpose two scripts; ties order the first script's events first. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses the text format above; the error names the offending line. *)

val to_file : string -> t -> unit

val of_file : string -> (t, string) result
(** [Error] covers both unreadable files and malformed contents. *)
