(* A closed loop with one caller over a set of services: each operation
   is a synchronous [Service.partial_lookup], an asynchronous
   [Async_client.lookup_random_order] run to completion on its own
   engine, or a delete+add pair that keeps the entry count constant.
   Every result is checked against the benchmark's own live set. *)

open Plookup
open Plookup_store
open Plookup_util
module Engine = Plookup_sim.Engine
open Measure

type tally = {
  lookup_us : Samples.t;  (* synchronous lookups *)
  async_us : Samples.t;  (* asynchronous lookups, wall time *)
  sim_ms : Samples.t;  (* asynchronous lookups, simulated latency *)
  update_us : Samples.t;  (* delete+add pairs *)
  mutable lookups : int;  (* synchronous *)
  mutable satisfied : int;  (* synchronous *)
  mutable contacts : int;  (* synchronous *)
  mutable minor_words : float;  (* over synchronous lookups, traced runs only *)
  mutable major_words : float;
}

type slot = {
  label : string;
  service : Service.t;
  mutable live : Entry.t array;  (* [live.(0 .. count-1)] are live *)
  mutable count : int;
  index : (int, int) Hashtbl.t;  (* entry id -> position in [live] *)
  mutable next_id : int;
  tally : tally;
}

let new_tally () =
  { lookup_us = Samples.create ();
    async_us = Samples.create ();
    sim_ms = Samples.create ();
    update_us = Samples.create ();
    lookups = 0;
    satisfied = 0;
    contacts = 0;
    minor_words = 0.;
    major_words = 0. }

(* A service of [n] servers holding entries [0 .. h-1]. *)
let slot ?repair ~label ~seed ~n ~h config =
  let service = Service.create ~seed ?repair ~n config in
  let live = Array.init h Entry.v in
  Service.place service (Array.to_list live);
  let index = Hashtbl.create (2 * h) in
  Array.iteri (fun i e -> Hashtbl.replace index (Entry.id e) i) live;
  { label; service; live; count = h; index; next_id = h; tally = new_tally () }

type op = Lookup of slot | Async of slot | Update of slot

type kind = K_lookup | K_async | K_update

(* A traced run opens a root span per operation; [running] tells the
   server-handler wrapper which kind of operation is open. *)
type trace = { spans : Spans.t; mutable running : kind }

type t = {
  target : int;
  cycle : op array;
  rng : Rng.t;  (* the benchmark's own: update victims, async hop latencies *)
  timeout : float;
  deadline : float option;
  mutable ops : int;
  mutable failed : int;
  mutable digest : int;
  mutable violations : string list;
  mutable trace : trace option;
  seen : (int, unit) Hashtbl.t;
}

let create ?deadline ~rng ~target ~timeout cycle =
  { target;
    cycle;
    rng;
    timeout;
    deadline;
    ops = 0;
    failed = 0;
    digest = 0;
    violations = [];
    trace = None;
    seen = Hashtbl.create 64 }

let slots t =
  Array.fold_left
    (fun acc op ->
      let s = match op with Lookup s | Async s | Update s -> s in
      if List.memq s acc then acc else acc @ [ s ])
    [] t.cycle

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.violations < 20 then t.violations <- msg :: t.violations

let mix_digest t v = t.digest <- ((t.digest * 31) + v) land max_int

(* Result ⊆ live set, distinct, at most [target] entries, at most [n]
   servers contacted. *)
let check_result t slot (r : Lookup_result.t) =
  Hashtbl.reset t.seen;
  let ok = ref true in
  List.iter
    (fun e ->
      let id = Entry.id e in
      if not (Hashtbl.mem slot.index id) then ok := false;
      if Hashtbl.mem t.seen id then ok := false;
      Hashtbl.replace t.seen id ();
      mix_digest t id)
    r.Lookup_result.entries;
  mix_digest t r.Lookup_result.servers_contacted;
  if List.length r.Lookup_result.entries > t.target then ok := false;
  if r.Lookup_result.servers_contacted > Service.n slot.service then ok := false;
  if not !ok then
    fail t
      (Printf.sprintf "%s: lookup result of %d entries from %d servers breaks an invariant"
         slot.label (Lookup_result.count r) r.Lookup_result.servers_contacted);
  !ok

let lookup t slot =
  let tl = slot.tally in
  let traced = t.trace <> None in
  let minor0, _, major0 = if traced then Gc.counters () else (0., 0., 0.) in
  let t0 = now_ns () in
  let r = Service.partial_lookup slot.service t.target in
  Samples.add tl.lookup_us (us_since t0);
  if traced then begin
    let minor1, _, major1 = Gc.counters () in
    tl.minor_words <- tl.minor_words +. (minor1 -. minor0);
    tl.major_words <- tl.major_words +. (major1 -. major0)
  end;
  tl.lookups <- tl.lookups + 1;
  tl.contacts <- tl.contacts + r.Lookup_result.servers_contacted;
  if check_result t slot r && Lookup_result.satisfied r then tl.satisfied <- tl.satisfied + 1

let async_lookup t slot =
  let tl = slot.tally in
  let cluster = Service.cluster slot.service in
  let engine = Engine.create () in
  let latency () = Rng.float t.rng 22.5 +. 2.5 in
  let outcome = ref None in
  let t0 = now_ns () in
  Async_client.lookup_random_order cluster engine ~latency ~timeout:t.timeout ~retries:2
    ?deadline:t.deadline ~t:t.target
    (fun o -> outcome := Some o);
  ignore (Engine.run engine);
  Samples.add tl.async_us (us_since t0);
  match !outcome with
  | None -> fail t (slot.label ^ ": asynchronous lookup never completed")
  | Some o ->
    Samples.add tl.sim_ms (Async_client.elapsed o);
    ignore (check_result t slot o.Async_client.result)

let remove_live slot i =
  let e = slot.live.(i) in
  let last = slot.count - 1 in
  slot.live.(i) <- slot.live.(last);
  Hashtbl.replace slot.index (Entry.id slot.live.(i)) i;
  Hashtbl.remove slot.index (Entry.id e);
  slot.count <- last

let add_live slot e =
  if slot.count = Array.length slot.live then
    slot.live <- Array.append slot.live (Array.make slot.count e);
  slot.live.(slot.count) <- e;
  Hashtbl.replace slot.index (Entry.id e) slot.count;
  slot.count <- slot.count + 1

let update t slot =
  let victim_i = Rng.int t.rng slot.count in
  let victim = slot.live.(victim_i) in
  let fresh = Entry.v slot.next_id in
  slot.next_id <- slot.next_id + 1;
  let t0 = now_ns () in
  Service.delete slot.service victim;
  Service.add slot.service fresh;
  Samples.add slot.tally.update_us (us_since t0);
  remove_live slot victim_i;
  add_live slot fresh

let kind_label = function
  | Lookup s -> "lookup." ^ s.label
  | Async s -> "async." ^ s.label
  | Update s -> "update." ^ s.label

let step t =
  let op = t.cycle.(t.ops mod Array.length t.cycle) in
  let run () =
    match op with
    | Lookup s -> lookup t s
    | Async s -> async_lookup t s
    | Update s -> update t s
  in
  (match t.trace with
  | None -> run ()
  | Some tr ->
    let name = Spans.intern tr.spans (kind_label op) in
    tr.running <- (match op with Lookup _ -> K_lookup | Async _ -> K_async | Update _ -> K_update);
    Spans.with_root tr.spans name run);
  t.ops <- t.ops + 1

(* Run [ops] operations. *)
let run_ops t ops =
  for _ = 1 to ops do
    step t
  done

(* Run blocks of [block] operations until [seconds] have passed; returns
   each block's wall time. *)
let run_blocks t ~block ~seconds =
  let t0 = now_ns () in
  let blocks = Samples.create () in
  while s_since t0 < seconds do
    let b0 = now_ns () in
    run_ops t block;
    Samples.add blocks (s_since b0)
  done;
  blocks

(* Pooled tallies over every slot. *)
let pooled t f = Samples.concat (List.map (fun s -> f s.tally) (slots t))
let total t f = List.fold_left (fun acc s -> acc + f s.tally) 0 (slots t)
