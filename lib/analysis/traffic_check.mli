(** Traffic-matrix sanity and Equation-1 load consistency.

    The matrix must be the right size, with finite nonnegative demands
    and a zero diagonal (re-verified here even though
    {!Arnet_traffic.Matrix.make} enforces it, for configurations arriving
    from foreign front ends).  When the configuration declares per-link
    primary loads, they must agree with what Equation 1 derives from the
    route table and matrix — protection levels computed from stale loads
    silently void the Theorem-1 guarantee.  Links whose primary demand
    meets or exceeds capacity are flagged: they sit in the regime where
    alternate routing turns metastable (PAPERS.md, Olesker-Taylor), and
    the scheme will protect all of their states.

    Codes: [traffic-size] (E), [traffic-negative] (E),
    [traffic-diagonal] (E), [traffic-load-mismatch] (E),
    [traffic-overload] (W). *)

val check : Check.t

val run : Check.config -> Diagnostic.t list
