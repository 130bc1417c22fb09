(** The aggregating counter sink.

    Folds an event stream back into the figures the simulator's
    {!Arnet_sim.Stats} accumulates on line — offered/blocked calls,
    primary/alternate carried counts, the hop histogram — plus decision
    detail only the stream has: primary-attempt admission rates and
    per-link trunk-reservation rejection counts.

    Streams may frame several engine runs with [Run_start]/[Run_end]
    records (as [Engine.replicate] emits); each frame accumulates into
    its own {!run}, and every count honours that run's warm-up window,
    so a summarized trace reproduces the run's reported statistics
    exactly.  Events arriving before any [Run_start] go to an implicit
    run using the [?warmup] given at creation. *)

type t

type run = {
  policy : string;  (** "" for the implicit run *)
  warmup : float;
  duration : float;
  mutable arrivals : int;  (** all arrivals, warm-up included *)
  mutable offered : int;  (** arrivals at [time >= warmup] *)
  mutable blocked : int;
  mutable carried_primary : int;
  mutable carried_alternate : int;
  mutable alternate_hops : int;
  mutable departures : int;  (** departures inside the window *)
  mutable primary_attempts : int;
  mutable primary_admitted : int;
  mutable alternate_rejections : int;
  rejections_by_link : (int, int) Hashtbl.t;
  mutable hop_hist : int array;  (** raw; use {!hop_histogram} *)
  mutable events : int;
  mutable calls : int option;  (** from [Run_end], when present *)
}

val create : ?warmup:float -> unit -> t
(** [warmup] (default 0) applies only to events outside any
    [Run_start] frame.
    @raise Invalid_argument when negative. *)

val emit : t -> Event.t -> unit
val sink : t -> Sink.t

val runs : t -> run list
(** Completed frames plus the in-progress one, in stream order. *)

val by_policy : t -> (string * run list) list
(** Runs grouped by policy name, first-seen order preserved — the shape
    of [Engine.replicate]'s result. *)

val total_events : t -> int

(** {1 Derived figures (per run)} *)

val blocking : run -> float
(** [blocked / offered]; 0 when nothing was offered — the same
    convention as [Stats.blocking]. *)

val alternate_fraction : run -> float

val hop_histogram : run -> int array
(** Index [h] counts measured calls carried on [h]-hop paths; index 0
    counts measured blocked calls.  Trailing zeros trimmed. *)

val rejections_by_link : run -> (int * int) list
(** [(link id, trunk-reservation rejections)] sorted by link id. *)
