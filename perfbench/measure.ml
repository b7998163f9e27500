(* Clock, samples, order statistics and the result record shared by every
   workload. *)

open Plookup_util

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_since t0 = float_of_int (now_ns () - t0) /. 1e3
let s_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* [time f] is [f ()] and its wall time in seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, s_since t0)

(* A growable float sample. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let to_array t = Array.sub t.a 0 t.n
  let sum t = Array.fold_left ( +. ) 0. (to_array t)

  let concat ts =
    let all = create () in
    List.iter (fun t -> for i = 0 to t.n - 1 do add all t.a.(i) done) ts;
    all
end

let median xs = Stats.percentile xs 50.

(* The percentile reported for a tail: [q] itself when at least ten
   samples lie beyond it, else the highest percentile that has ten. *)
let tail_q ~count q = Float.max 50. (Float.min q (100. *. (1. -. (10. /. float_of_int count))))

(* [repeat_median k f] runs [f] [k] times and returns the median wall time
   in seconds, with the last result. *)
let repeat_median k f =
  let last = ref None in
  let times =
    Array.init k (fun _ ->
        let r, s = time f in
        last := Some r;
        s)
  in
  (Option.get !last, median times)

(* What one run reports: named metrics in order, operation counts, and
   failed correctness checks. *)
type result = {
  mutable metrics : (string * float * string) list;  (* reversed *)
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;  (* reversed, first few kept *)
}

let result () = { metrics = []; attempted = 0; failed = 0; violations = [] }
let metric r name unit_ value = r.metrics <- (name, value, unit_) :: r.metrics
let info fmt = Printf.printf (fmt ^^ "\n%!")

let violation r msg =
  if List.length r.violations < 20 then r.violations <- msg :: r.violations

let check r cond msg = if not cond then violation r msg

(* A percentile metric, printed with its sample count and the percentile
   actually used. *)
let percentile_metric r name unit_ samples q =
  let xs = Samples.to_array samples in
  let count = Array.length xs in
  check r (count >= 20) (Printf.sprintf "%s: only %d samples" name count);
  let q = if q <= 50. then q else tail_q ~count q in
  let v = if count = 0 then nan else Stats.percentile xs q in
  info "  %-22s %14.4f %-6s (p%g of %d samples)" name v unit_ q count;
  metric r name unit_ v

let plain_metric r name unit_ v =
  info "  %-22s %14.4f %s" name v unit_;
  metric r name unit_ v

let json_float v = Printf.sprintf "%.17g" v

(* The last stdout line: exactly [correct], [attempted], [failed] and
   [metrics]. *)
let result_line r =
  let metrics =
    List.rev_map
      (fun (name, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) u)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.violations = [] && r.failed = 0)
    r.attempted r.failed (String.concat ", " metrics)

(* Every metric must be a finite number. *)
let check_finite r =
  List.iter
    (fun (name, v, _) -> check r (Float.is_finite v) (Printf.sprintf "%s is not finite" name))
    r.metrics

let table_digest table = Digest.to_hex (Digest.string (Table.to_csv table))
