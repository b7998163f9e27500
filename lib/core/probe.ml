open Plookup_store
open Plookup_util
module Net = Plookup_net.Net

(* Reachable up servers in ascending id order: the O(n) scan a
   [reachable] predicate forces (it can only be asked server by
   server). *)
let reachable_array cluster ok =
  let n = Cluster.n cluster in
  let arr = Array.make n 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if Cluster.is_up cluster i && ok i then begin
      arr.(!count) <- i;
      incr count
    end
  done;
  if !count = n then arr else Array.sub arr 0 !count

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
  let server =
    match reachable with
    | None -> Cluster.random_up_server cluster
    | Some ok -> (
      match reachable_array cluster ok with
      | [||] -> None
      | usable -> Some (Rng.pick (Cluster.rng cluster) usable))
  in
  match server with
  | None -> Lookup_result.empty ~target:t
  | Some server ->
    let seen = Hashtbl.create 16 in
    let answered = contact cluster ~t ~seen server in
    result_of cluster seen ~contacted:(if answered then 1 else 0) ~target:t

(* Pop servers off [order] until [t] distinct entries are in hand. *)
let probe cluster ~t order =
  let seen = Hashtbl.create 16 in
  let contacted = ref 0 in
  let rec go () =
    if Hashtbl.length seen < t then
      match Candidates.pop order with
      | Some server ->
        if contact cluster ~t ~seen server then incr contacted;
        go ()
      | None -> ()
  in
  go ();
  result_of cluster seen ~contacted:!contacted ~target:t

(* A random order over the reachable up servers: without a predicate,
   over the ranked up view, so only the probed positions cost anything. *)
let random_usable cluster usable =
  let rng = Cluster.rng cluster in
  match usable with
  | None -> Candidates.random rng ~m:(Cluster.up_count cluster) ~get:(Cluster.kth_up cluster)
  | Some arr -> Candidates.random rng ~m:(Array.length arr) ~get:(Array.get arr)

let random_order ?reachable cluster ~t =
  let usable = Option.map (reachable_array cluster) reachable in
  probe cluster ~t (random_usable cluster usable)

let stride_order ~n ~start ~step = Array.init n (Candidates.stride_plan ~n ~start ~step)

let stride ?reachable cluster ~start ~step ~t =
  let n = Cluster.n cluster in
  let usable = Option.map (reachable_array cluster) reachable in
  let all_usable =
    match usable with
    | None -> Cluster.up_count cluster = n
    | Some arr -> Array.length arr = n
  in
  if all_usable then
    (* Failure-free fast path: the deterministic strided order. *)
    probe cluster ~t (Candidates.stride ~n ~start ~step)
  else
    (* Failures (or restricted reachability): random order, per the
       paper. *)
    probe cluster ~t (random_usable cluster usable)
