open Plookup
open Plookup_store
module Net = Plookup_net.Net
module Rng = Plookup_util.Rng

let drain c =
  let rec go acc = match Candidates.pop c with Some s -> go (s :: acc) | None -> List.rev acc in
  go []

(* {2 Random} *)

let test_random_is_permutation () =
  List.iter
    (fun m ->
      let c = Candidates.random (Rng.create m) ~m ~get:(fun k -> 3 * k) in
      let got = drain c in
      Alcotest.(check (list int))
        (Printf.sprintf "m=%d: every slot once, through get" m)
        (List.init m (fun k -> 3 * k))
        (List.sort compare got);
      Helpers.check_bool "exhausted" true (Candidates.is_empty c))
    [ 0; 1; 2; 10; 10_000 ]

let test_random_draws_one_per_pop () =
  (* Draws are taken at pop time, one [Rng.int] each: popping three
     slots of ten leaves the generator exactly three draws ahead. *)
  let rng = Rng.create 5 in
  let shadow = Rng.copy rng in
  let c = Candidates.random rng ~m:10 ~get:Fun.id in
  Helpers.check_int "no draw at creation" (Rng.int (Rng.copy shadow) 1000)
    (Rng.int (Rng.copy rng) 1000);
  for _ = 1 to 3 do
    ignore (Candidates.pop c)
  done;
  for k = 0 to 2 do
    ignore (Rng.int shadow (10 - k))
  done;
  Helpers.check_int "three draws consumed" (Rng.int shadow 1000) (Rng.int rng 1000)

(* Pearson's chi-square of observed counts against a uniform
   expectation. *)
let chi_square counts ~expected =
  Array.fold_left
    (fun acc o ->
      let d = float_of_int o -. expected in
      acc +. (d *. d /. expected))
    0. counts

(* (position, server) uniformity over the first three positions, m=10,
   one fresh generator per seed.  Critical values are at p = 0.001:
   27.88 for 9 degrees of freedom, 135.98 for 89. *)
let test_random_position_uniformity () =
  let m = 10 and seeds = 18_000 in
  let single = Array.init 3 (fun _ -> Array.make m 0) in
  let pairs = Array.make (m * m) 0 in
  for seed = 1 to seeds do
    match drain (Candidates.random (Rng.create seed) ~m ~get:Fun.id) with
    | a :: b :: c :: _ ->
      single.(0).(a) <- single.(0).(a) + 1;
      single.(1).(b) <- single.(1).(b) + 1;
      single.(2).(c) <- single.(2).(c) + 1;
      pairs.((a * m) + b) <- pairs.((a * m) + b) + 1
    | _ -> Alcotest.fail "order shorter than 3"
  done;
  Array.iteri
    (fun p counts ->
      let x2 = chi_square counts ~expected:(float_of_int seeds /. 10.) in
      if x2 > 27.88 then Alcotest.failf "position %d: chi-square %.2f > 27.88" p x2)
    single;
  (* The first two positions jointly: the 90 ordered pairs of distinct
     servers are equally likely. *)
  let off_diagonal = List.filter (fun i -> i / m <> i mod m) (List.init (m * m) Fun.id) in
  let x2 =
    chi_square
      (Array.of_list (List.map (fun i -> pairs.(i)) off_diagonal))
      ~expected:(float_of_int seeds /. 90.)
  in
  if x2 > 135.98 then Alcotest.failf "pairs: chi-square %.2f > 135.98" x2

(* {2 Stride} *)

(* The array-and-visited-flags builder the stride plan replaced, kept
   verbatim as the reference. *)
let reference_stride_order ~n ~start ~step =
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

let prop_stride_matches_reference =
  Helpers.qcheck ~count:2000 "stride plan = array builder, any n <= 64, start, step"
    QCheck2.Gen.(triple (int_range 1 64) (int_range (-200) 200) (int_range (-200) 200))
    (fun (n, start, step) ->
      let want = reference_stride_order ~n ~start ~step in
      Probe.stride_order ~n ~start ~step = want
      && Array.of_list (drain (Candidates.stride ~n ~start ~step)) = want)

(* {2 Explicit} *)

let reference_dedup order =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      if Hashtbl.mem seen s then false
      else begin
        Hashtbl.add seen s ();
        true
      end)
    order

let prop_explicit_matches_dedup =
  Helpers.qcheck ~count:500 "explicit = the caller's list, later repeats dropped"
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 12))
    (fun order ->
      let c = Candidates.explicit order in
      let empty_first = Candidates.is_empty c in
      empty_first = (order = []) && drain c = reference_dedup order)

let test_explicit_is_empty_skips_repeats () =
  let c = Candidates.explicit [ 4; 4; 2; 4; 2 ] in
  Helpers.check_int "first" 4 (Option.get (Candidates.pop c));
  Helpers.check_bool "2 still to come" false (Candidates.is_empty c);
  Helpers.check_int "second" 2 (Option.get (Candidates.pop c));
  Helpers.check_bool "only repeats left" true (Candidates.is_empty c);
  Helpers.check_bool "pop agrees" true (Candidates.pop c = None)

(* {2 The probes on top} *)

(* Every server [i] holds only entry [i] and counts the lookups it
   answers, so a result names the servers that produced it. *)
let counting_cluster ~seed ~n =
  let cluster = Cluster.create ~seed ~n () in
  let hits = Array.make n 0 in
  for i = 0 to n - 1 do
    ignore (Server_store.add (Cluster.store cluster i) (Entry.v i))
  done;
  Net.set_handler (Cluster.net cluster) (fun dst _src msg ->
      match (msg : Msg.t) with
      | Msg.Data (Msg.Lookup t) ->
        hits.(dst) <- hits.(dst) + 1;
        Msg.Entries
          (Server_store.random_pick (Cluster.store cluster dst) (Cluster.rng cluster) t)
      | _ -> Msg.Ack);
  (cluster, hits)

let test_single_pinned () =
  (* [Probe.single] is one draw over the up count resolved by rank —
     the same server the old ascending up-array index named.  Pinned
     from that implementation: (seed, down servers) -> server. *)
  List.iter
    (fun (seed, down, want) ->
      let cluster, _ = counting_cluster ~seed ~n:12 in
      List.iter (Cluster.fail cluster) down;
      let got =
        List.map
          (fun _ ->
            match (Probe.single cluster ~t:1).Lookup_result.entries with
            | [ e ] -> Entry.id e
            | _ -> -1)
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list int)) (Printf.sprintf "seed %d" seed) want got)
    [ (1, [], [ 2; 4; 5 ]);
      (2, [ 0; 5 ], [ 3; 2; 4 ]);
      (3, [ 1; 2; 3; 11 ], [ 5; 10; 4 ]);
      (42, [ 4 ], [ 3; 10; 1 ]) ]

let test_unsatisfiable_contacts_every_up_server_once () =
  (* n = 10k with one server in seven down and a target no cluster can
     meet: the lookup must walk the whole up set, each server once,
     and never a down one — for the random order and for the stride
     probe's failure fallback. *)
  let n = 10_000 in
  List.iter
    (fun (name, lookup) ->
      let cluster, hits = counting_cluster ~seed:9 ~n in
      for i = 0 to n - 1 do
        if i mod 7 = 3 then Cluster.fail cluster i
      done;
      let up = Cluster.up_count cluster in
      let r = lookup cluster in
      Helpers.check_int (name ^ ": contacted every up server") up
        r.Lookup_result.servers_contacted;
      Helpers.check_int (name ^ ": one entry per up server") up (Lookup_result.count r);
      Array.iteri
        (fun i h ->
          let want = if i mod 7 = 3 then 0 else 1 in
          if h <> want then Alcotest.failf "%s: server %d contacted %d times" name i h)
        hits)
    [ ("random_order", fun c -> Probe.random_order c ~t:(n + 1));
      ("stride fallback", fun c -> Probe.stride c ~start:17 ~step:2 ~t:(n + 1)) ]

let test_lookup_allocates_o_contacted () =
  (* A satisfied lookup at n = 10k allocates for the servers it
     contacts, not for n: well under one word per server. *)
  let n = 10_000 in
  let cluster, _ = counting_cluster ~seed:4 ~n in
  Cluster.fail cluster 77;
  List.iter
    (fun (name, lookup) ->
      ignore (lookup ());
      let before = Gc.allocated_bytes () in
      for _ = 1 to 10 do
        ignore (lookup ())
      done;
      let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) /. 10. in
      if words > float_of_int n /. 4. then
        Alcotest.failf "%s: %.0f words per lookup at n=%d" name words n)
    [ ("random_order", fun () -> Probe.random_order cluster ~t:5);
      ("single", fun () -> Probe.single cluster ~t:1);
      ("stride fallback", fun () -> Probe.stride cluster ~start:0 ~step:2 ~t:5) ];
  Cluster.recover cluster 77;
  let before = Gc.allocated_bytes () in
  ignore (Probe.stride cluster ~start:0 ~step:2 ~t:5);
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  if words > float_of_int n /. 4. then
    Alcotest.failf "stride: %.0f words per lookup at n=%d" words n

let () =
  Helpers.run "candidates"
    [ ( "random",
        [ Alcotest.test_case "permutation of the slots" `Quick test_random_is_permutation;
          Alcotest.test_case "one draw per pop" `Quick test_random_draws_one_per_pop;
          Alcotest.test_case "position uniformity (chi-square)" `Quick
            test_random_position_uniformity ] );
      ("stride", [ prop_stride_matches_reference ]);
      ( "explicit",
        [ prop_explicit_matches_dedup;
          Alcotest.test_case "is_empty skips repeats" `Quick
            test_explicit_is_empty_skips_repeats ] );
      ( "probe",
        [ Alcotest.test_case "single pinned" `Quick test_single_pinned;
          Alcotest.test_case "unsatisfiable n=10k" `Quick
            test_unsatisfiable_contacts_every_up_server_once;
          Alcotest.test_case "allocation O(contacted)" `Quick test_lookup_allocates_o_contacted
        ] ) ]
