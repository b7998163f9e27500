open Plookup_util

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type explicit = { mutable rest : int list; popped : unit Int_tbl.t }

type order =
  | Random of { rng : Rng.t; get : int -> int; moved : int Int_tbl.t }
      (** Slots [pos .. size-1] are still to be popped.  A slot absent
          from [moved] holds itself; a present one holds the slot an
          earlier swap moved into it. *)
  | Plan of (int -> int)  (** Position [k] pops [plan k]. *)
  | Explicit of explicit

type t = { order : order; size : int; mutable pos : int }

let random rng ~m ~get =
  if m < 0 then invalid_arg "Candidates.random: m must be non-negative";
  { order = Random { rng; get; moved = Int_tbl.create 16 }; size = m; pos = 0 }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let stride_plan ~n ~start ~step =
  if n < 1 then invalid_arg "Candidates.stride_plan: n must be positive";
  (* OCaml's [mod] keeps the sign, so normalize both into [0, n). *)
  let start = ((start mod n) + n) mod n in
  let step = ((step mod n) + n) mod n in
  (* The cycle visits exactly the residues congruent to [start] mod g;
     every block [b*g, b*g + g) holds g-1 residues it missed. *)
  let g = gcd n step in
  let cycle = n / g in
  let r = start mod g in
  fun k ->
    if k < cycle then (start + (k * step)) mod n
    else begin
      let j = k - cycle in
      let o = j mod (g - 1) in
      (j / (g - 1) * g) + if o < r then o else o + 1
    end

let stride ~n ~start ~step = { order = Plan (stride_plan ~n ~start ~step); size = n; pos = 0 }

let explicit order =
  { order = Explicit { rest = order; popped = Int_tbl.create 16 }; size = 0; pos = 0 }

let slot moved i = match Int_tbl.find_opt moved i with Some s -> s | None -> i

(* Drop the servers already popped from the head of an explicit list. *)
let rec skip_popped e =
  match e.rest with
  | s :: rest when Int_tbl.mem e.popped s ->
    e.rest <- rest;
    skip_popped e
  | _ -> ()

let is_empty t =
  match t.order with
  | Random _ | Plan _ -> t.pos >= t.size
  | Explicit e ->
    skip_popped e;
    e.rest = []

let pop t =
  match t.order with
  | Random { rng; get; moved } ->
    if t.pos >= t.size then None
    else begin
      (* One front-to-back Fisher–Yates step: swap slot [k] with a
         uniform slot of [k .. size-1] and emit what lands at [k].  Slot
         [k] is never read again, so only [j] needs recording. *)
      let k = t.pos in
      let j = k + Rng.int rng (t.size - k) in
      let chosen = slot moved j in
      if j <> k then Int_tbl.replace moved j (slot moved k);
      t.pos <- k + 1;
      Some (get chosen)
    end
  | Plan plan ->
    if t.pos >= t.size then None
    else begin
      let k = t.pos in
      t.pos <- k + 1;
      Some (plan k)
    end
  | Explicit e -> (
    skip_popped e;
    match e.rest with
    | [] -> None
    | s :: rest ->
      e.rest <- rest;
      Int_tbl.add e.popped s ();
      Some s)
