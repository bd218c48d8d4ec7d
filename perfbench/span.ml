(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, op). Spans are recorded only
   around the benchmark's own calls into ihnet's layers, kept in flat
   off-heap arrays (so the GC never scans them) and written out once at
   the end. When the recorder is off, [enter]/[leave] cost one branch,
   so the untraced runs that give the end-to-end numbers carry no
   tracing work. *)

open Bigarray

let now () = Int64.to_int (Monotonic_clock.now ())

type column = (int, int_elt, c_layout) Array1.t

let column n : column = Array1.create int c_layout n

type t = {
  mutable on : bool;
  mutable names : string array;  (** Registered names; index = name id. *)
  mutable n : int;
  mutable name : column;
  mutable start : column;
  mutable stop : column;
  mutable parent : column;
  mutable op : column;
  mutable stack : int list;  (** Open spans, innermost first. *)
  mutable cur_op : int;
}

let root = 0

(* off until [switch_on]: set-up and warm-up ops record nothing *)
let create () =
  {
    on = false;
    names = [| "op" |];
    n = 0;
    name = column 0;
    start = column 0;
    stop = column 0;
    parent = column 0;
    op = column 0;
    stack = [];
    cur_op = -1;
  }

let switch_on t = t.on <- true
let switch_off t = t.on <- false

let register t label =
  let rec find i =
    if i = Array.length t.names then None else if t.names.(i) = label then Some i else find (i + 1)
  in
  match find 0 with
  | Some i -> i
  | None ->
    t.names <- Array.append t.names [| label |];
    Array.length t.names - 1

let grow t =
  let cap = max 4096 (2 * Array1.dim t.name) in
  let ext a =
    let b = column cap in
    Array1.blit a (Array1.sub b 0 (Array1.dim a));
    b
  in
  t.name <- ext t.name;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent;
  t.op <- ext t.op

let enter t id =
  if t.on then begin
    if t.n = Array1.dim t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.{i} <- id;
    t.parent.{i} <- (match t.stack with p :: _ -> p | [] -> -1);
    t.op.{i} <- t.cur_op;
    t.stack <- i :: t.stack;
    t.start.{i} <- now ()
  end

let leave t =
  if t.on then
    match t.stack with
    | i :: rest ->
      t.stop.{i} <- now ();
      t.stack <- rest
    | [] -> invalid_arg "Span.leave: no open span"

(* the root span of one op; every layer span opened inside it is its
   descendant *)
let op_begin t i =
  if t.on then begin
    t.cur_op <- i;
    enter t root
  end

(* closes the op's root span, and any layer span an exception left
   open *)
let op_end t =
  if t.on then begin
    while t.stack <> [] do
      leave t
    done;
    t.cur_op <- -1
  end

type total = { calls : int; self_ns : int; total_ns : int }

(* self time: a span's duration minus the time its direct children
   cover (children are properly nested, so they never overlap).
   [weight op] scales the times of the spans of op [op]; the harness
   passes each op's machine-speed scale. *)
let totals ?(weight = fun _ -> 1.0) t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.{i} in
    if p >= 0 then child.(p) <- child.(p) + (t.stop.{i} - t.start.{i})
  done;
  let acc = Array.make (Array.length t.names) { calls = 0; self_ns = 0; total_ns = 0 } in
  for i = 0 to t.n - 1 do
    let w = if t.op.{i} >= 0 then weight t.op.{i} else 1.0 in
    let scaled ns = int_of_float (Float.round (float_of_int ns *. w)) in
    let d = t.stop.{i} - t.start.{i} in
    let a = acc.(t.name.{i}) in
    acc.(t.name.{i}) <-
      {
        calls = a.calls + 1;
        self_ns = a.self_ns + scaled (d - child.(i));
        total_ns = a.total_ns + scaled d;
      }
  done;
  Array.to_list (Array.mapi (fun i a -> (t.names.(i), a)) acc)

let total_of t label =
  match List.assoc_opt label (totals t) with
  | Some a -> a
  | None -> { calls = 0; self_ns = 0; total_ns = 0 }

(* share of op time that layer spans account for: everything but the
   root spans' own self time *)
let coverage t =
  let r = total_of t "op" in
  if r.total_ns = 0 then 0.0 else 1.0 -. (float_of_int r.self_ns /. float_of_int r.total_ns)

let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "op\tspan\tparent\tname\tstart_ns\tend_ns\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" t.op.{i} i t.parent.{i} t.names.(t.name.{i})
          t.start.{i} t.stop.{i}
      done)
