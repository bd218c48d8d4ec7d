(* Parallel-array binary heap. Priorities live in a bare [float array]
   (unboxed flat storage), so sift comparisons are direct loads instead
   of pointer chases through boxed records — the heap is on the
   simulator's and allocator's innermost paths.

   Slots of [vals] at and past [len] hold [vacant ()], an immediate, so
   a removed value is unreachable from the heap: the simulator's queue
   does not keep executed closures alive, nor the completion heap
   finished flows. Making every [vals] array from that immediate also
   keeps it a block array when ['a] is [float], so the immediate is
   never written into a flat float array. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let vacant () : 'a = Obj.magic 0
let create () = { prios = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }
let is_empty t = t.len = 0
let size t = t.len

let lt t i j =
  t.prios.(i) < t.prios.(j) || (t.prios.(i) = t.prios.(j) && t.seqs.(i) < t.seqs.(j))

(* [lt] between slot [i] and an entry held outside the arrays, at
   [prio] with sequence number [seq]: whether slot [i] goes first, and
   whether the outside entry does *)
let[@inline] slot_first t i prio seq = t.prios.(i) < prio || (t.prios.(i) = prio && t.seqs.(i) < seq)
let[@inline] entry_first t prio seq i = prio < t.prios.(i) || (prio = t.prios.(i) && seq < t.seqs.(i))

let move t ~src ~dst =
  t.prios.(dst) <- t.prios.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.vals.(dst) <- t.vals.(src)

let[@inline] place t i prio seq value =
  t.prios.(i) <- prio;
  t.seqs.(i) <- seq;
  t.vals.(i) <- value

let grow t =
  let cap = Array.length t.prios in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let np = Array.make ncap 0.0 in
    let ns = Array.make ncap 0 in
    let nv = Array.make ncap (vacant ()) in
    Array.blit t.prios 0 np 0 t.len;
    Array.blit t.seqs 0 ns 0 t.len;
    Array.blit t.vals 0 nv 0 t.len;
    t.prios <- np;
    t.seqs <- ns;
    t.vals <- nv
  end

(* Both sifts move a hole rather than swapping the sifted entry down or
   up: a level costs one slot write instead of two, and the entry is
   written once, where it lands. They make the comparisons a swapping
   sift makes, so the layout is the same. *)
let push t prio value =
  grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && entry_first t prio seq ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    move t ~src:p ~dst:!i;
    i := p
  done;
  place t !i prio seq value

let peek t = if t.len = 0 then None else Some (t.prios.(0), t.vals.(0))

let empty_top name = invalid_arg ("Heap." ^ name ^ ": empty heap")

let top_prio t = if t.len = 0 then empty_top "top_prio" else t.prios.(0)
let top t = if t.len = 0 then empty_top "top" else t.vals.(0)

let drop_top t =
  if t.len = 0 then empty_top "drop_top";
  let n = t.len - 1 in
  t.len <- n;
  (* the last entry leaves its slot and is re-seated from the root *)
  let prio = t.prios.(n) and seq = t.seqs.(n) and value = t.vals.(n) in
  t.vals.(n) <- vacant ();
  if n > 0 then begin
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      (* the first of the entry and its children below slot [i]; -1 is
         the entry itself *)
      let first = if l < n && slot_first t l prio seq then l else -1 in
      let first =
        if r < n && (if first < 0 then slot_first t r prio seq else lt t r first) then r else first
      in
      if first < 0 then continue := false
      else begin
        move t ~src:first ~dst:!i;
        i := first
      end
    done;
    place t !i prio seq value
  end

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) and value = t.vals.(0) in
    drop_top t;
    Some (prio, value)
  end

let clear t =
  Array.fill t.vals 0 t.len (vacant ());
  t.len <- 0

let rec drop_while t pred =
  if t.len > 0 && pred t.vals.(0) then begin
    drop_top t;
    drop_while t pred
  end

let to_list t =
  let copy =
    {
      prios = Array.sub t.prios 0 t.len;
      seqs = Array.sub t.seqs 0 t.len;
      vals = Array.sub t.vals 0 t.len;
      len = t.len;
      next_seq = t.next_seq;
    }
  in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some pv -> drain (pv :: acc)
  in
  drain []
