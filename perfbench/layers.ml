(* The traced run: every per-layer metric, whichever workload is named.
   The named workload's part runs for the full [seconds]; the other two
   run one short pass, so every traced run reports the same metric set.
   Micro-measurements draw from the benchmark's own generators, never a
   cluster's, so they cannot perturb any output. *)

open Plookup
open Plookup_store
open Plookup_util
module E = Plookup_experiments
module Engine = Plookup_sim.Engine
module Metrics = Plookup_obs.Metrics
module Obs = Plookup_obs.Obs
open Measure

let out_dir = ".perfbench-out"
let short_s = 2.0

(* ------------------------------------------------------------------ *)
(* lookup_10k: root span per operation, child span per server contact  *)

let lookup_10k r ~seed ~seconds =
  (* Untraced: as many operations as fit in [seconds]; only the count,
     time and digest are kept, so these services can be collected. *)
  let ops, untraced_s, untraced_digest =
    let mix = Workloads.mix_10k ~seed (Workloads.slots_10k ~seed) in
    let s = Samples.sum (Mix.run_blocks mix ~block:300 ~seconds) in
    (mix.Mix.ops, s, mix.Mix.digest)
  in
  (* Traced: the same operations on services rebuilt from the same seed. *)
  let slots = Workloads.slots_10k ~seed in
  let traced = Workloads.mix_10k ~seed slots in
  let spans = Spans.create () in
  let tr = { Mix.spans; running = Mix.K_update } in
  let k = Array.length slots in
  let received = Array.make k 0 and update_msgs = Array.make k 0 in
  Array.iteri
    (fun i (s : Mix.slot) ->
      let name = Spans.intern spans ("net.handler." ^ s.Mix.label) in
      Plookup_net.Net.wrap_handler
        (Cluster.net (Service.cluster s.Mix.service))
        (fun handler dst src msg ->
          match tr.Mix.running with
          | Mix.K_lookup ->
            let id = Spans.open_ spans name in
            let reply = handler dst src msg in
            Spans.close spans id;
            (match reply with
            | Msg.Entries es -> received.(i) <- received.(i) + List.length es
            | _ -> ());
            reply
          | Mix.K_update ->
            update_msgs.(i) <- update_msgs.(i) + 1;
            handler dst src msg
          | Mix.K_async -> handler dst src msg))
    slots;
  traced.Mix.trace <- Some tr;
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let (), traced_s = time (fun () -> Mix.run_ops traced ops) in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
  Workloads.fold_mix r traced;
  check r (traced.Mix.digest = untraced_digest)
    "lookup_10k: tracing changed the lookup results";
  info "lookup_10k traced: %d operations, %.3f s untraced, %.3f s traced, digests %x / %x" ops
    untraced_s traced_s untraced_digest traced.Mix.digest;
  (* Per root-span name: count, total and child (handler) time. *)
  let sums = Hashtbl.create 16 in
  Spans.fold_roots spans
    (fun () ~name ~total_ns ~child_ns ->
      let c, tot, ch = Option.value (Hashtbl.find_opt sums name) ~default:(0, 0, 0) in
      Hashtbl.replace sums name (c + 1, tot + total_ns, ch + child_ns))
    ();
  let per name =
    let c, tot, ch = Option.value (Hashtbl.find_opt sums (Spans.intern spans name)) ~default:(0, 0, 0) in
    let c = float_of_int (max 1 c) in
    (float_of_int tot /. c /. 1e3, float_of_int ch /. c /. 1e3)
  in
  Array.iteri
    (fun i (s : Mix.slot) ->
      let l = s.Mix.label and tl = s.Mix.tally in
      let lookups = float_of_int (max 1 tl.Mix.lookups) in
      let total_us, handler_us = per ("lookup." ^ l) in
      let self_us = total_us -. handler_us in
      check r (Float.abs (self_us +. handler_us -. total_us) <= 1e-9 *. total_us)
        ("lookup_10k: self + handler time differs from the lookup span for " ^ l);
      plain_metric r ("core.service.partial_lookup_us." ^ l) "us" total_us;
      plain_metric r ("core.client_self_us." ^ l) "us" self_us;
      plain_metric r ("net.handler_us." ^ l) "us" handler_us;
      plain_metric r ("core.contacts_per_lookup." ^ l) "count"
        (float_of_int tl.Mix.contacts /. lookups);
      plain_metric r ("core.useful_ratio." ^ l) "ratio"
        (float_of_int Workloads.t_target *. lookups /. float_of_int (max 1 received.(i)));
      let updates = Samples.count tl.Mix.update_us in
      plain_metric r ("core.service.update_us." ^ l) "us" (fst (per ("update." ^ l)));
      plain_metric r ("net.msgs_per_update." ^ l) "count"
        (float_of_int update_msgs.(i) /. float_of_int (max 1 updates));
      plain_metric r ("gc.minor_words_per_lookup." ^ l) "words" (tl.Mix.minor_words /. lookups);
      plain_metric r ("gc.major_words_per_lookup." ^ l) "words" (tl.Mix.major_words /. lookups))
    slots;
  plain_metric r "gc.major_collections" "count" (float_of_int major_collections);
  plain_metric r "obs.trace_overhead_pct" "%" (100. *. ((traced_s /. untraced_s) -. 1.));
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Spans.write spans (Filename.concat out_dir (Printf.sprintf "spans-lookup_10k-%d.csv" seed))

(* ------------------------------------------------------------------ *)
(* paper_suite: per-experiment wall time                               *)

let paper_suite r ~seed ~seconds =
  let t0 = now_ns () in
  let passes = ref [] and major = Samples.create () in
  while s_since t0 < seconds || !passes = [] do
    let w0 = (Gc.quick_stat ()).Gc.major_words in
    let per_exp, _ = Workloads.suite_pass r ~seed in
    Samples.add major ((Gc.quick_stat ()).Gc.major_words -. w0);
    passes := per_exp :: !passes
  done;
  info "paper_suite traced: %d passes" (List.length !passes);
  List.iter
    (fun e ->
      let id = e.E.Registry.id in
      let times =
        List.map (fun per_exp -> List.find (fun (i, _, _) -> i = id) per_exp) !passes
        |> List.map (fun (_, s, _) -> s)
      in
      plain_metric r ("experiments." ^ id ^ "_s") "s" (median (Array.of_list times)))
    Workloads.suite;
  plain_metric r "gc.major_words" "words" (median (Samples.to_array major))

(* ------------------------------------------------------------------ *)
(* day: ratios from the registry snapshot                              *)

let day r ~seed ~seconds =
  let t0 = now_ns () in
  let days = ref [] and minor = Samples.create () in
  while s_since t0 < seconds || !days = [] do
    let w0 = Gc.minor_words () in
    let day = Workloads.day_pass r ~seed:(Workloads.day_seed ~seed (List.length !days)) in
    Samples.add minor (Gc.minor_words () -. w0);
    days := day :: !days
  done;
  let f =
    Workloads.day_figures
      (List.filteri (fun i _ -> i < Workloads.day_seeds) (List.rev_map (fun (t, o, _) -> (t, o)) !days))
  in
  let entries = f.Workloads.entries in
  let counter ?where name = Metrics.sum_counters entries ?where name in
  let shed = counter "net.messages.shed" in
  let offered = f.Workloads.delivered + shed in
  let lookups = float_of_int (max 1 f.Workloads.lookups) in
  let cached_lookups =
    Workloads.histogram_count_where entries "day.lookup.latency" [ ("mode", "tuned+cache") ]
  in
  plain_metric r "net.sends_per_lookup" "count" (float_of_int offered /. lookups);
  plain_metric r "net.shed_ratio" "ratio" (float_of_int shed /. float_of_int (max 1 offered));
  plain_metric r "client.cache.served_ratio" "ratio"
    (float_of_int
       (counter "client.cache.hits" + counter "client.cache.stale_served"
      + counter "client.cache.coalesced")
    /. float_of_int (max 1 cached_lookups));
  plain_metric r "net.repair_msgs" "count" (float_of_int (counter "net.messages.repair"));
  plain_metric r "gc.minor_words" "words" (median (Samples.to_array minor))

(* ------------------------------------------------------------------ *)
(* Micro-measurements of single layers                                 *)

(* Mean cost of [f] over [k] calls, in nanoseconds. *)
let per_call_ns k f =
  let t0 = now_ns () in
  for _ = 1 to k do
    f ()
  done;
  float_of_int (now_ns () - t0) /. float_of_int k

let micro r ~seed =
  let rng = Rng.create (seed lxor 0x3C20) in
  (* util *)
  let draws = 2_000_000 in
  let w0 = Gc.minor_words () in
  let sink = ref 0 in
  let ns = per_call_ns draws (fun () -> sink := !sink + Rng.int rng 10_007) in
  let words = (Gc.minor_words () -. w0) /. float_of_int draws in
  ignore (Sys.opaque_identity !sink);
  plain_metric r "util.rng.int_ns" "ns" ns;
  plain_metric r "util.rng.words_per_draw" "words" words;
  let arr = Array.init 10_000 Fun.id in
  plain_metric r "util.rng.shuffle_10k_us" "us"
    (per_call_ns 200 (fun () -> Rng.shuffle_in_place rng arr) /. 1e3);
  (* net *)
  let cluster = Cluster.create ~seed ~n:10_000 () in
  let buf = Array.make 10_000 0 in
  plain_metric r "net.up_servers_into_us" "us"
    (per_call_ns 2000 (fun () -> ignore (Cluster.up_servers_into cluster buf)) /. 1e3);
  (* store *)
  let store = Server_store.create () in
  for i = 0 to 39 do
    ignore (Server_store.add store (Entry.v i))
  done;
  let picked = Array.make 40 (Entry.v 0) in
  plain_metric r "store.random_pick_us" "us"
    (per_call_ns 100_000 (fun () ->
         ignore (Server_store.random_pick_into store rng Workloads.t_target picked))
    /. 1e3);
  (* workload: the Fig. 12 stream, replayed as Figs. 12 and 14 do *)
  let spec =
    { Plookup_workload.Update_gen.steady_entries = 100;
      add_period = 10.;
      tail_heavy = false;
      updates = 20_000 }
  in
  let stream, gen_s =
    repeat_median 3 (fun () -> Plookup_workload.Update_gen.generate (Rng.create seed) spec)
  in
  plain_metric r "workload.update_gen.generate_ms" "ms" (gen_s *. 1e3);
  let failed service = Server_store.cardinal (Cluster.store (Service.cluster service) 0) < 15 in
  let (), replay_s =
    repeat_median 3 (fun () ->
        let service = Service.create ~seed ~n:10 (Service.fixed 17) in
        ignore (Plookup_workload.Replay.run_timed ~service ~stream ~failed))
  in
  plain_metric r "workload.replay.run_timed_ms" "ms" (replay_s *. 1e3);
  let (), msgs_s =
    repeat_median 3 (fun () ->
        let service = Service.create ~seed ~n:10 (Service.hash 2) in
        ignore (Plookup_workload.Replay.messages_for_updates ~service ~stream))
  in
  plain_metric r "workload.replay.messages_for_updates_ms" "ms" (msgs_s *. 1e3);
  (* core at n=10, the paper's regime *)
  Array.iter
    (fun (s : Mix.slot) ->
      plain_metric r ("core.service.partial_lookup_us.n10." ^ s.Mix.label) "us"
        (per_call_ns 20_000 (fun () ->
             ignore (Service.partial_lookup s.Mix.service Workloads.t_target))
        /. 1e3))
    (Workloads.slots_n10 ~seed);
  (* metrics: a Fig. 9 point and a Fig. 7 point *)
  let live = List.init 100 Entry.v in
  let random20 = Service.create ~seed ~n:10 (Service.random_server 20) in
  Service.place random20 live;
  let (), unfair_s =
    repeat_median 3 (fun () ->
        ignore
          (Plookup_metrics.Unfairness.of_instance random20 ~live ~t:Workloads.t_target
             ~lookups:1000))
  in
  plain_metric r "metrics.unfairness.of_instance_ms" "ms" (unfair_s *. 1e3);
  let hash2 = Service.create ~seed ~n:10 (Service.hash 2) in
  Service.place hash2 live;
  let placement =
    Plookup_metrics.Fault_tolerance.snapshot (Service.cluster hash2) ~capacity:100
  in
  plain_metric r "metrics.fault_tolerance.greedy_us" "us"
    (per_call_ns 2000 (fun () ->
         ignore (Plookup_metrics.Fault_tolerance.greedy placement ~t:Workloads.t_target))
    /. 1e3);
  (* sim: schedule + fire, one in ten cancelled before it fires *)
  let engine = Engine.create () in
  let handles = Array.make 1000 None in
  let rounds = 200 in
  let fired = ref 0 in
  let event_ns =
    per_call_ns rounds (fun () ->
        let base = Engine.now engine in
        for i = 0 to 999 do
          handles.(i) <-
            Some
              (Engine.schedule_at engine
                 ~time:(base +. float_of_int (Rng.int rng 97))
                 (fun _ -> incr fired))
        done;
        for i = 0 to 99 do
          Option.iter (Engine.cancel engine) handles.(i * 10)
        done;
        ignore (Engine.run engine))
    /. 1000.
  in
  check r (!fired = rounds * 900) "sim: cancelled events fired";
  plain_metric r "sim.engine.event_ns" "ns" event_ns;
  (* core: a day-shaped asynchronous lookup, and a client-cache hit *)
  let slot = Workloads.day_slot ~seed in
  let probe =
    Mix.create ~deadline:E.Ctx.default_overload.E.Ctx.deadline ~rng ~target:Workloads.t_target
      ~timeout:100. [| Mix.Async slot |]
  in
  Mix.run_ops probe 2000;
  Workloads.fold_mix r probe;
  plain_metric r "core.async_client.lookup_us" "us"
    (Samples.sum slot.Mix.tally.Mix.async_us /. 2000.);
  let cache = Client_cache.create ~ttl:1e12 ~capacity:128 () in
  let answer = Lookup_result.empty ~target:Workloads.t_target in
  let waiter _ ~now:_ = () in
  ignore (Client_cache.lookup cache ~key:7 ~now:0. ~waiter);
  Client_cache.complete cache ~key:7 ~now:0. ~ok:true ~attempts:1 answer;
  let hits = ref 0 in
  let hit_ns =
    per_call_ns 1_000_000 (fun () ->
        match Client_cache.lookup cache ~key:7 ~now:1. ~waiter with
        | Client_cache.Hit _ -> incr hits
        | _ -> ())
  in
  check r (!hits = 1_000_000) "client cache: expected every lookup to hit";
  plain_metric r "core.client_cache.hit_ns" "ns" hit_ns

let run r ~workload ~seed ~seconds =
  let budget name = if name = workload then seconds else short_s in
  lookup_10k r ~seed ~seconds:(budget "lookup_10k" /. 2.);
  paper_suite r ~seed ~seconds:(budget "paper_suite");
  day r ~seed ~seconds:(budget "day");
  micro r ~seed
