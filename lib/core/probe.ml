open Plookup_store
open Plookup_util
module Net = Plookup_net.Net

(* Reachable up servers in ascending id order — the same contents (and
   order) as filtering [Cluster.up_servers], built as an array with no
   per-element list cells.  The no-predicate path fills straight from
   the network's up bitmap. *)
let candidates_array ?reachable cluster =
  match reachable with
  | None ->
    let arr = Array.make (max 1 (Cluster.up_count cluster)) 0 in
    let count = Cluster.up_servers_into cluster arr in
    if count = Array.length arr then arr else Array.sub arr 0 count
  | Some ok ->
    let n = Cluster.n cluster in
    let arr = Array.make (max 1 n) 0 in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if Cluster.is_up cluster i && ok i then begin
        arr.(!count) <- i;
        incr count
      end
    done;
    if !count = Array.length arr then arr else Array.sub arr 0 !count

(* Send one Lookup and merge the distinct answers into [seen]. *)
let contact cluster ~t ~seen server =
  match Net.send (Cluster.net cluster) ~src:Net.Client ~dst:server (Msg.lookup t) with
  | Some (Msg.Entries entries) ->
    List.iter
      (fun e -> if not (Hashtbl.mem seen (Entry.id e)) then Hashtbl.add seen (Entry.id e) e)
      entries;
    true
  | Some (Msg.Ack | Msg.Candidate _ | Msg.Digest _ | Msg.Busy) | None -> false

(* The client delivers exactly [target] entries when it collected more:
   merging answers from multiple servers overshoots, and returning the
   whole union would systematically over-deliver every entry (it would
   also make the unfairness metric reflect overshoot rather than bias).
   The kept subset is uniform over everything collected.

   The table is drained into an array sized by [Hashtbl.length], filled
   back-to-front so the element order — and therefore the [Rng.sample]
   result — is identical to the old fold-to-list / [Array.of_list]
   round-trip this replaces. *)
let pick_from_table seen ~rng ~target =
  let len = Hashtbl.length seen in
  if len = 0 then []
  else begin
    let arr = Array.make len (Entry.v 0) in
    let i = ref len in
    Hashtbl.iter
      (fun _ e ->
        decr i;
        arr.(!i) <- e)
      seen;
    if len <= target then Array.to_list arr
    else Array.to_list (Rng.sample rng arr target)
  end

let result_of cluster seen ~contacted ~target =
  { Lookup_result.entries = pick_from_table seen ~rng:(Cluster.rng cluster) ~target;
    servers_contacted = contacted;
    target }

let single ?reachable cluster ~t =
  let up = candidates_array ?reachable cluster in
  match Array.length up with
  | 0 -> Lookup_result.empty ~target:t
  | len ->
    let server = up.(Rng.int (Cluster.rng cluster) len) in
    let seen = Hashtbl.create 16 in
    let answered = contact cluster ~t ~seen server in
    result_of cluster seen ~contacted:(if answered then 1 else 0) ~target:t

(* Walk [order.(0 .. len-1)] until [t] distinct entries are in hand. *)
let probe_in_order cluster ~t order =
  let seen = Hashtbl.create 16 in
  let contacted = ref 0 in
  let len = Array.length order in
  let i = ref 0 in
  while !i < len && Hashtbl.length seen < t do
    if contact cluster ~t ~seen order.(!i) then incr contacted;
    incr i
  done;
  result_of cluster seen ~contacted:!contacted ~target:t

let random_order ?reachable cluster ~t =
  let up = candidates_array ?reachable cluster in
  Rng.shuffle_in_place (Cluster.rng cluster) up;
  probe_in_order cluster ~t up

(* Normalize [start] and [step] into [0, n): OCaml's [mod] is
   sign-preserving, so a raw negative step would walk [pos] below 0 and
   crash the array access; step = 0 (mod n) degenerates to the single
   start residue, which the rest-extension below already handles. *)
let stride_order ~n ~start ~step =
  let step = ((step mod n) + n) mod n in
  let order = Array.make n 0 in
  let visited = Array.make n false in
  let len = ref 0 in
  let push i =
    visited.(i) <- true;
    order.(!len) <- i;
    incr len
  in
  let pos = ref (((start mod n) + n) mod n) in
  while not visited.(!pos) do
    push !pos;
    pos := (!pos + step) mod n
  done;
  for i = 0 to n - 1 do
    if not visited.(i) then push i
  done;
  order

let stride ?reachable cluster ~start ~step ~t =
  let n = Cluster.n cluster in
  let usable = candidates_array ?reachable cluster in
  if Array.length usable = n then
    (* Failure-free fast path: the deterministic strided order. *)
    probe_in_order cluster ~t (stride_order ~n ~start ~step)
  else begin
    (* Failures (or restricted reachability): random order, per the
       paper. *)
    Rng.shuffle_in_place (Cluster.rng cluster) usable;
    probe_in_order cluster ~t usable
  end
