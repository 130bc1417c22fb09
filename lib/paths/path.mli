(** Loop-free directed paths through a {!Arnet_topology.Graph.t}.

    A path is stored as its node sequence; the link sequence is derived
    and cached at construction, so simulators can walk link ids without
    hash lookups. *)

open Arnet_topology

type t = private {
  nodes : int array;  (** node sequence, length [hops + 1] *)
  link_ids : int array;  (** ids of the traversed links, length [hops] *)
}
(** Aliasing invariant: both arrays are logically immutable and are
    shared, never copied — the simulator holds [link_ids] itself for
    every call admitted on the path until the call departs, and a
    compiled plan (built once per pair by [Arnet_core.Controller.plans]
    and the custom schemes) hands out the same {!t} values, and the
    outcomes built on them, for the lifetime of a run.  Consumers must
    treat the arrays as read-only; mutating one corrupts every call in
    progress and routing decision that aliases it.  The route table
    stores no {!t}: it builds a fresh one from its rows on each
    request. *)

val make : Graph.t -> int list -> t
(** [make g nodes] checks that consecutive nodes are linked in [g] and
    that no node repeats.
    @raise Invalid_argument on a malformed or looping sequence. *)

val of_nodes_unchecked : Graph.t -> int array -> t
(** Trusted constructor for algorithms that already guarantee validity.
    Still resolves (and therefore checks existence of) every link. *)

val with_link_ids_unchecked : nodes:int array -> link_ids:int array -> t
(** Fully trusted constructor: no graph lookup at all.  The caller owns
    both invariants — [nodes] is a loop-free path and [link_ids.(i)] is
    the id of link [nodes.(i) -> nodes.(i+1)] in whatever graph the path
    will be used against.  Exists for code that already holds each
    link — {!Bfs.min_hop_path} steps along out-links, and
    {!Route_table} reads a stored path's link ids and their
    destinations off its rows; both arrays are adopted without copying
    (see the aliasing invariant above).
    @raise Invalid_argument on a length mismatch. *)

val hops : t -> int
(** Number of links. *)

val src : t -> int
val dst : t -> int
val nodes : t -> int list
val link_ids : t -> int list

val links : Graph.t -> t -> Link.t list
(** The traversed links, in order. *)

val mem_node : t -> int -> bool
val mem_link : t -> int -> bool

val equal : t -> t -> bool

val compare_by_length : t -> t -> int
(** Orders by hop count first, then lexicographically by node sequence —
    the deterministic "increasing length" order in which alternates are
    attempted. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
