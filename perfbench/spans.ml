(* In-memory span log for the traced run: one root span per benchmark
   operation and one child span per server contact.  Spans are kept in
   preallocated parallel arrays and written out only when the run ends,
   so recording one costs two clock reads and a few stores. *)

type t = {
  mutable len : int;
  mutable name : int array;
  mutable parent : int array;  (* -1 for a root *)
  mutable start_ns : int array;
  mutable stop_ns : int array;
  names : (string, int) Hashtbl.t;
  mutable current : int;  (* the open root span, or -1 *)
}

let create () =
  let cap = 1 lsl 16 in
  { len = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    start_ns = Array.make cap 0;
    stop_ns = Array.make cap 0;
    names = Hashtbl.create 16;
    current = -1 }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.names in
    Hashtbl.add t.names s i;
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.parent <- ext t.parent;
  t.start_ns <- ext t.start_ns;
  t.stop_ns <- ext t.stop_ns

(* [open_ t name] starts a span under the current root (or as a new root
   when none is open) and returns its id. *)
let open_ t name =
  if t.len = Array.length t.name then grow t;
  let id = t.len in
  t.len <- id + 1;
  t.name.(id) <- name;
  t.parent.(id) <- t.current;
  t.start_ns.(id) <- Measure.now_ns ();
  id

let close t id = t.stop_ns.(id) <- Measure.now_ns ()

let with_root t name f =
  let id = open_ t name in
  t.current <- id;
  Fun.protect f ~finally:(fun () ->
      close t id;
      t.current <- -1)

let duration_ns t id = t.stop_ns.(id) - t.start_ns.(id)

(* Per root span: its duration and the time its children cover (child
   spans never overlap: contacts are synchronous). *)
let fold_roots t f init =
  let child_ns = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child_ns.(p) <- child_ns.(p) + duration_ns t i
  done;
  let acc = ref init in
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 then acc := f !acc ~name:t.name.(i) ~total_ns:(duration_ns t i) ~child_ns:child_ns.(i)
  done;
  !acc

(* One line per span: id, parent, name, start and end (ns). *)
let write t path =
  let names = Array.make (Hashtbl.length t.names) "" in
  Hashtbl.iter (fun s i -> names.(i) <- s) t.names;
  let oc = open_out path in
  output_string oc "id,parent,name,start_ns,end_ns\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d,%d,%s,%d,%d\n" i t.parent.(i) names.(t.name.(i)) t.start_ns.(i)
      t.stop_ns.(i)
  done;
  close_out oc
