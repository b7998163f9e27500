(** Client-side server probing disciplines.

    The strategies differ in *which* servers a client contacts and in
    what order; the accumulation rule is shared: keep contacting servers,
    merging the distinct entries returned, until at least [t] distinct
    entries are in hand or no further server remains.  Each contact is a
    {!Msg.Lookup} message, so it shows up in the network's message
    accounting and in the returned lookup cost.

    Every probe pops its servers off one {!Candidates} order, so a
    lookup costs O(contacted * log n) client time, not O(n).  All probes
    honour an optional [reachable] predicate (the limited-reachability
    variation of Section 7.2): servers outside the client's reach are
    never contacted.  A predicate can only be asked server by server, so
    it costs one O(n) scan per lookup. *)

val pick_from_table :
  (int, Plookup_store.Entry.t) Hashtbl.t ->
  rng:Plookup_util.Rng.t ->
  target:int ->
  Plookup_store.Entry.t list
(** The shared truncation rule: drain the merged-answers table and, when
    it overshoots [target], keep a uniform [target]-subset (one
    {!Plookup_util.Rng.sample} draw).  Drains through a directly-sized
    array — no intermediate list — while consuming the identical RNG
    draws as the historical fold-to-list formulation. *)

val single :
  ?reachable:(int -> bool) -> Cluster.t -> t:int -> Lookup_result.t
(** Contact one random reachable up server and return its answer as-is —
    the Full-Replication / Fixed-x client ("a client selects a random
    server to do the lookup").  If that one answer is short, no further
    server is tried, matching the paper (those strategies make every
    server identical, so retrying is pointless).  Without [reachable]
    this is {!Cluster.random_up_server}: one draw over the up count.
    Returns {!Lookup_result.empty} if no server is reachable. *)

val random_order :
  ?reachable:(int -> bool) -> Cluster.t -> t:int -> Lookup_result.t
(** Contact reachable up servers in uniformly random order without
    repetition until satisfied — the RandomServer-x / Hash-y client.
    The order is a lazy {!Candidates.random} over the ranked up view, so
    each contacted server costs one draw and O(log n). *)

val stride_order : n:int -> start:int -> step:int -> int array
(** The Round-Robin client's probe plan over servers [0 .. n-1]:
    [start], [start+step], [start+2*step], ... (mod n) until the stride
    cycle closes, then the residues the cycle missed, in ascending id
    order — a permutation of [0 .. n-1]: [Array.init n] over
    {!Candidates.stride_plan}.  [start] and [step] may be any integers
    (both are normalized mod n).  Draws no randomness: callers pick
    [start].  Requires [n >= 1]. *)

val stride :
  ?reachable:(int -> bool) -> Cluster.t -> start:int -> step:int -> t:int -> Lookup_result.t
(** Contact [start], [start+step], [start+2*step], ... (mod n) — the
    Round-Robin-y client, which knows servers [step] apart share the
    fewest entries.  A down or unreachable server in the sequence makes
    the client fall back to random probing over the remaining servers,
    as the paper prescribes ("if there are any server failures, choose
    random servers instead").  [start] and [step] may be any integers
    (both are normalized mod n, so negative, zero and >= n strides are
    all safe); when the stride cycle covers only some residues the probe
    extends to the remaining servers rather than looping. *)
