(** The order in which a lookup client contacts servers.

    A candidate order is a sequence over [m] slots, popped one server at
    a time; a lookup pops only as many servers as it contacts, so an
    order costs O(popped) rather than O(m).  Both lookup drivers —
    the synchronous {!Probe} and the engine-driven {!Async_client} — run
    on it, so there is one definition of "random order", one of the
    Round-Robin stride plan and one of "the caller's order, duplicates
    ignored". *)

type t

val random : Plookup_util.Rng.t -> m:int -> get:(int -> int) -> t
(** A uniformly random order over the slots [0 .. m-1], slot [k] naming
    server [get k]: a front-to-back Fisher–Yates run lazily, one
    {!Plookup_util.Rng.int} draw per pop, taken at pop time.  Slots
    displaced by an earlier swap live in a sparse table, so nothing of
    size [m] is allocated up front and popping all [m] slots is O(m) in
    total.  [get] is called once per pop, and must keep naming the same
    server for a slot while the order is in use (e.g. {!Cluster.kth_up}
    while no server fails or recovers).  Requires [m >= 0]. *)

val stride_plan : n:int -> start:int -> step:int -> int -> int
(** [stride_plan ~n ~start ~step] is the Round-Robin client's probe plan
    as a function of the position [k] in [0 .. n-1]: [start],
    [start+step], [start+2*step], ... (mod n) for the [n/g] positions of
    the stride cycle, where [g = gcd(n, step)], then the residues the
    cycle missed, in ascending order — a permutation of [0 .. n-1].
    [start] and [step] may be any integers (both are normalized mod n).
    O(1) per position after an O(log n) setup; draws nothing.  Requires
    [n >= 1]. *)

val stride : n:int -> start:int -> step:int -> t
(** The order {!stride_plan} names, position by position. *)

val explicit : int list -> t
(** The caller's list in its order, later repeats of a server skipped. *)

val pop : t -> int option
(** The next server of the order, or [None] once it is exhausted. *)

val is_empty : t -> bool
(** [true] iff {!pop} would return [None].  Draws nothing. *)
