(* The three workloads' untraced runs, each reporting every end-to-end
   metric (README.md has the per-workload definition of each). *)

open Plookup
open Plookup_util
module E = Plookup_experiments
module Metrics = Plookup_obs.Metrics
module Obs = Plookup_obs.Obs
open Measure

let t_target = 35

(* ------------------------------------------------------------------ *)
(* Service sets and operation mixes                                    *)

(* lookup_10k: n = h = 10 000, one service per probe discipline. *)
let slots_10k ~seed =
  let n = 10_000 and h = 10_000 in
  [| Mix.slot ~label:"hash-2" ~seed:(seed + 1) ~n ~h (Service.hash 2);
     Mix.slot ~label:"round-2" ~seed:(seed + 2) ~n ~h (Service.round_robin 2);
     Mix.slot ~label:"fixed-40" ~seed:(seed + 3) ~n ~h (Service.fixed 40) |]

(* Operations rotate over the services; every tenth is an update (the
   updated service rotates too) and one in ten is an asynchronous lookup
   on the first service. *)
let rotating_cycle services =
  let k = Array.length services in
  Array.init (10 * k) (fun i ->
      if i mod 10 = 9 then Mix.Update services.(i / 10 mod k)
      else if i mod 10 = 6 then Mix.Async services.(0)
      else Mix.Lookup services.(i mod k))

let mix_10k ~seed slots =
  Mix.create ~rng:(Rng.create (seed lxor 0x10C)) ~target:t_target ~timeout:100.
    (rotating_cycle slots)

(* paper_suite's lookup path: the Fig. 4 strategies at n=10, h=100. *)
let slots_n10 ~seed =
  let n = 10 and h = 100 in
  [| Mix.slot ~label:"hash-2" ~seed:(seed + 11) ~n ~h (Service.hash 2);
     Mix.slot ~label:"round-2" ~seed:(seed + 12) ~n ~h (Service.round_robin 2);
     Mix.slot ~label:"random-20" ~seed:(seed + 13) ~n ~h (Service.random_server 20);
     Mix.slot ~label:"fixed-50" ~seed:(seed + 14) ~n ~h (Service.fixed 50) |]

let mix_n10 ~seed slots =
  Mix.create ~rng:(Rng.create (seed lxor 0x4A9)) ~target:t_target ~timeout:100.
    (rotating_cycle slots)

(* day's lookup path: a day-shaped Hash-2 cluster (n=10, repair on,
   capacity model with fast nacks) probed by the tuned asynchronous client
   (250 ms deadline), one update in ten operations. *)
let day_slot ~seed =
  let ov = E.Ctx.default_overload in
  let s =
    Mix.slot ~repair:Repair.default_config ~label:"hash-2" ~seed:(seed + 21) ~n:10 ~h:100
      (Service.hash 2)
  in
  Cluster.set_capacity (Service.cluster s.Mix.service) ~service_rate:ov.E.Ctx.service_rate
    ~queue_limit:ov.E.Ctx.capacity ~nack:true ();
  s

let mix_day ~seed slot =
  Mix.create ~deadline:E.Ctx.default_overload.E.Ctx.deadline
    ~rng:(Rng.create (seed lxor 0xDA7)) ~target:t_target ~timeout:100.
    (Array.init 10 (fun i -> if i = 9 then Mix.Update slot else Mix.Async slot))

(* ------------------------------------------------------------------ *)
(* Shared reporting                                                    *)

(* Top of the major heap so far.  Workloads read it once a fixed amount of
   work is done, so that the latency samples a longer run keeps cannot
   move it. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let fold_mix r mix =
  r.attempted <- r.attempted + mix.Mix.ops;
  r.failed <- r.failed + mix.Mix.failed;
  List.iter (violation r) (List.rev mix.Mix.violations)

let pct num den = 100. *. float_of_int num /. float_of_int (max 1 den)

let report_updates r mix =
  let updates = Mix.pooled mix (fun tl -> tl.Mix.update_us) in
  percentile_metric r "update_p50_us" "us" updates 50.;
  percentile_metric r "update_p99_us" "us" updates 99.

(* Synchronous lookups: wall time, contacts, success; the asynchronous
   ones give the simulated latency. *)
let report_sync_lookups r mix =
  let lookups = Mix.pooled mix (fun tl -> tl.Mix.lookup_us) in
  percentile_metric r "lookup_p50_us" "us" lookups 50.;
  percentile_metric r "lookup_p99_us" "us" lookups 99.;
  report_updates r mix;
  let n_lookups = Mix.total mix (fun tl -> tl.Mix.lookups) in
  plain_metric r "msgs_per_lookup" "count"
    (float_of_int (Mix.total mix (fun tl -> tl.Mix.contacts)) /. float_of_int (max 1 n_lookups));
  plain_metric r "ok_pct" "%" (pct (Mix.total mix (fun tl -> tl.Mix.satisfied)) n_lookups);
  let sim = Mix.pooled mix (fun tl -> tl.Mix.sim_ms) in
  percentile_metric r "sim_p50_ms" "ms" sim 50.;
  percentile_metric r "sim_crowd_p99_ms" "ms" sim 99.

(* ------------------------------------------------------------------ *)
(* lookup_10k                                                          *)

let lookup_10k r ~seed ~seconds =
  let slots, setup_s = repeat_median 5 (fun () -> slots_10k ~seed) in
  let mix = mix_10k ~seed slots in
  let blocks = Mix.run_blocks mix ~block:1000 ~seconds in
  fold_mix r mix;
  info "lookup_10k: %d operations in %d blocks of 1000" mix.Mix.ops (Samples.count blocks);
  plain_metric r "setup_s" "s" setup_s;
  plain_metric r "wall_s" "s" (median (Samples.to_array blocks));
  plain_metric r "ops_per_s" "1/s" (float_of_int mix.Mix.ops /. Samples.sum blocks);
  report_sync_lookups r mix;
  plain_metric r "peak_heap_mb" "MB" (peak_heap_mb ());
  info "  result digest %x" mix.Mix.digest

(* ------------------------------------------------------------------ *)
(* paper_suite                                                         *)

let suite_scale = 0.25
let suite = List.filter (fun e -> e.E.Registry.id <> E.Exp_day.id) E.Registry.all

let check_table r id table =
  check r (Table.rows table <> []) (id ^ ": empty table");
  List.iter
    (List.iter (function
      | Table.F v | Table.F4 v ->
        check r (Float.is_finite v) (Printf.sprintf "%s: non-finite cell" id)
      | Table.S _ | Table.I _ -> ()))
    (Table.rows table)

(* One pass over the suite: per-experiment wall times, digests and the
   messages the servers received.  [between] runs after each experiment,
   outside its timing. *)
let suite_pass ?(between = ignore) r ~seed =
  let ctx = E.Ctx.v ~seed ~scale:suite_scale ~jobs:1 ~obs:(Obs.create ()) () in
  let per_exp =
    List.map
      (fun e ->
        let table, s = time (fun () -> e.E.Registry.run ctx) in
        r.attempted <- r.attempted + 1;
        let before = List.length r.violations in
        check_table r e.E.Registry.id table;
        if List.length r.violations > before then r.failed <- r.failed + 1;
        between ();
        (e.E.Registry.id, s, table_digest table))
      suite
  in
  let msgs =
    Metrics.sum_counters (Metrics.snapshot ctx.E.Ctx.obs.Obs.metrics) "net.messages.received"
  in
  (per_exp, msgs)

let digests per_exp = List.map (fun (id, _, d) -> (id, d)) per_exp

let report_digests passes =
  match passes with
  | [] -> ()
  | first :: rest ->
    List.iter (fun (id, d) -> info "  digest %-8s %s" id d) first;
    info "  outputs_identical %b (%d passes)" (List.for_all (( = ) first) rest)
      (1 + List.length rest)

let paper_suite r ~seed ~seconds =
  let slots, setup_s =
    repeat_median 101 (fun () ->
        ignore (E.Ctx.v ~seed ~scale:suite_scale ~jobs:1 ~obs:(Obs.create ()) ());
        slots_n10 ~seed)
  in
  let mix = mix_n10 ~seed slots in
  (* Mix operations run in slices between experiments, so their samples
     spread over the whole run like the suite's own time. *)
  let between () = Mix.run_ops mix 2000 in
  let t0 = now_ns () in
  let walls = Samples.create () and rates = Samples.create () in
  let passes = ref [] and heap = ref 0. in
  while s_since t0 < seconds || !passes = [] do
    let per_exp, msgs = suite_pass ~between r ~seed in
    let wall = List.fold_left (fun acc (_, s, _) -> acc +. s) 0. per_exp in
    Samples.add walls wall;
    Samples.add rates (float_of_int msgs /. wall);
    passes := digests per_exp :: !passes;
    if !heap = 0. then heap := peak_heap_mb ()
  done;
  fold_mix r mix;
  info "paper_suite: %d passes at scale %g, %d probe operations" (Samples.count walls)
    suite_scale mix.Mix.ops;
  report_digests (List.rev !passes);
  plain_metric r "setup_s" "s" setup_s;
  plain_metric r "wall_s" "s" (median (Samples.to_array walls));
  plain_metric r "ops_per_s" "1/s" (median (Samples.to_array rates));
  report_sync_lookups r mix;
  plain_metric r "peak_heap_mb" "MB" !heap

(* ------------------------------------------------------------------ *)
(* day                                                                 *)

let day_ctx ~seed =
  E.Ctx.v ~seed ~scale:1.0 ~jobs:1 ~cache:E.Ctx.default_cache ~obs:(Obs.create ()) ()

let day_columns =
  [ "strategy"; "client"; "success %"; "p50 ms"; "crowd p99 ms"; "crowd p999 ms"; "skew";
    "shed %"; "hedge %"; "stale"; "msgs/lookup"; "hit %" ]

let is_pct_column c = String.length c > 0 && c.[String.length c - 1] = '%'

let check_day_table r table =
  check r (Table.columns table = day_columns) "day: unexpected columns";
  check r (List.length (Table.rows table) = 24)
    (Printf.sprintf "day: %d rows, expected 24" (List.length (Table.rows table)));
  List.iter
    (fun row ->
      List.iter2
        (fun col cell ->
          match cell with
          | Table.F v | Table.F4 v ->
            check r (Float.is_finite v) ("day: non-finite " ^ col);
            if is_pct_column col then
              check r (v >= 0. && v <= 100.) (Printf.sprintf "day: %s = %g" col v)
          | Table.S _ | Table.I _ -> ())
        (Table.columns table) row)
    (Table.rows table)

(* A histogram rebuilt from snapshot buckets: observing [2^b] lands in
   bucket [b], so the pooled quantile follows the registry's own rule. *)
let pooled_histogram entries name =
  let h = Metrics.histogram (Metrics.create ()) name in
  List.iter
    (fun (e : Metrics.entry) ->
      match e.Metrics.v with
      | Metrics.Histogram { buckets; _ } when e.Metrics.name = name ->
        List.iter
          (fun (b, k) ->
            for _ = 1 to k do
              Metrics.observe h (Float.pow 2. (float_of_int b))
            done)
          buckets
      | _ -> ())
    entries;
  h

let histogram_count_where entries name labels =
  List.fold_left
    (fun acc (e : Metrics.entry) ->
      match e.Metrics.v with
      | Metrics.Histogram { count; _ }
        when e.Metrics.name = name && List.for_all (fun l -> List.mem l e.Metrics.labels) labels
        ->
        acc + count
      | _ -> acc)
    0 entries

type day_figures = {
  lookups : int;
  satisfied : float;
  delivered : int;  (* data-plane messages received by servers *)
  sim_p50 : float;
  sim_p99 : float;
  entries : Metrics.entry list;
}

(* Figures pooled over several days: their tables and registry
   snapshots.  The crowd p99 is the mean of the table's per-cell column:
   pooled, the p99 sits at the 512 ms edge of the registry's log2
   buckets, where a few samples move it by 40% (README.md). *)
let day_figures days =
  let entries = List.concat_map (fun (_, obs) -> Metrics.snapshot obs.Obs.metrics) days in
  let lookups = ref 0 and satisfied = ref 0. and crowd_p99 = Samples.create () in
  List.iter
    (fun (table, obs) ->
      let own = Metrics.snapshot obs.Obs.metrics in
      let cell row col =
        let rec go cols cells =
          match (cols, cells) with
          | c :: _, x :: _ when c = col -> x
          | _ :: cs, _ :: xs -> go cs xs
          | _ -> invalid_arg col
        in
        go (Table.columns table) row
      in
      List.iter
        (fun row ->
          match
            (cell row "strategy", cell row "client", cell row "success %", cell row "crowd p99 ms")
          with
          | Table.S strategy, Table.S mode, Table.F ok, Table.F p99 ->
            let k =
              histogram_count_where own "day.lookup.latency"
                [ ("strategy", strategy); ("mode", mode) ]
            in
            lookups := !lookups + k;
            satisfied := !satisfied +. (ok /. 100. *. float_of_int k);
            Samples.add crowd_p99 p99
          | _ -> ())
        (Table.rows table))
    days;
  let hist_all = pooled_histogram entries "day.lookup.latency" in
  info "  %d days pooled: %d lookups, %d cells" (List.length days) !lookups
    (Samples.count crowd_p99);
  { lookups = !lookups;
    satisfied = !satisfied;
    delivered =
      Metrics.sum_counters entries ~where:[ ("plane", "data") ] "net.messages.received";
    sim_p50 = Metrics.histogram_quantile hist_all 50.;
    sim_p99 = Samples.sum crowd_p99 /. float_of_int (max 1 (Samples.count crowd_p99));
    entries }

(* Days cycle over [day_seeds] seeds derived from the run's seed, so the
   day-to-day variation of one seed averages out within a run; the
   behavioural figures pool the first cycle exactly. *)
let day_seeds = 16
let day_seed ~seed i = (seed * 1000) + (i mod day_seeds)

(* One Exp_day.run on a fresh context. *)
let day_pass r ~seed =
  let ctx = day_ctx ~seed in
  let table, wall = time (fun () -> E.Exp_day.run ctx) in
  r.attempted <- r.attempted + 1;
  let before = List.length r.violations in
  check_day_table r table;
  if List.length r.violations > before then r.failed <- r.failed + 1;
  (table, ctx.E.Ctx.obs, wall)

let day r ~seed ~seconds =
  let slot, setup_s =
    repeat_median 101 (fun () ->
        ignore (day_ctx ~seed);
        day_slot ~seed)
  in
  let mix = mix_day ~seed slot in
  let t0 = now_ns () in
  let walls = Samples.create () and rates = Samples.create () in
  let days = ref [] and digests = Array.make day_seeds "" and identical = ref true in
  let i = ref 0 and heap = ref 0. in
  while s_since t0 < seconds || !i < day_seeds do
    let table, obs, wall = day_pass r ~seed:(day_seed ~seed !i) in
    Samples.add walls wall;
    let lookups = histogram_count_where (Metrics.snapshot obs.Obs.metrics) "day.lookup.latency" [] in
    Samples.add rates (float_of_int lookups /. wall);
    let d = table_digest table in
    if !i < day_seeds then begin
      days := (table, obs) :: !days;
      digests.(!i) <- d
    end
    else if digests.(!i mod day_seeds) <> d then identical := false;
    incr i;
    Mix.run_ops mix 5000;
    if !i = day_seeds then heap := peak_heap_mb ()
  done;
  fold_mix r mix;
  let f = day_figures (List.rev !days) in
  info "day: %d passes over %d seeds, %d probe operations" !i day_seeds mix.Mix.ops;
  Array.iteri (fun k d -> info "  digest day@%d %s" (day_seed ~seed k) d) digests;
  info "  outputs_identical %b" !identical;
  plain_metric r "setup_s" "s" setup_s;
  plain_metric r "wall_s" "s" (median (Samples.to_array walls));
  plain_metric r "ops_per_s" "1/s" (median (Samples.to_array rates));
  let async = Mix.pooled mix (fun tl -> tl.Mix.async_us) in
  percentile_metric r "lookup_p50_us" "us" async 50.;
  percentile_metric r "lookup_p99_us" "us" async 99.;
  report_updates r mix;
  plain_metric r "msgs_per_lookup" "count"
    (float_of_int f.delivered /. float_of_int (max 1 f.lookups));
  plain_metric r "ok_pct" "%" (100. *. f.satisfied /. float_of_int (max 1 f.lookups));
  plain_metric r "sim_p50_ms" "ms" f.sim_p50;
  plain_metric r "sim_crowd_p99_ms" "ms" f.sim_p99;
  plain_metric r "peak_heap_mb" "MB" !heap
