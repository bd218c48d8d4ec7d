(* Parallel-array binary heap. Priorities live in a bare [float array]
   (unboxed flat storage), so sift comparisons are direct loads instead
   of pointer chases through boxed records — the heap is on the
   simulator's and allocator's innermost paths. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { prios = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }
let is_empty t = t.len = 0
let size t = t.len

let lt t i j =
  t.prios.(i) < t.prios.(j) || (t.prios.(i) = t.prios.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let p = t.prios.(i) in
  t.prios.(i) <- t.prios.(j);
  t.prios.(j) <- p;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let v = t.vals.(i) in
  t.vals.(i) <- t.vals.(j);
  t.vals.(j) <- v

let grow t fill =
  let cap = Array.length t.prios in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let np = Array.make ncap 0.0 in
    let ns = Array.make ncap 0 in
    let nv = Array.make ncap fill in
    Array.blit t.prios 0 np 0 t.len;
    Array.blit t.seqs 0 ns 0 t.len;
    Array.blit t.vals 0 nv 0 t.len;
    t.prios <- np;
    t.seqs <- ns;
    t.vals <- nv
  end

let push t prio value =
  grow t value;
  let n = t.len in
  t.prios.(n) <- prio;
  t.seqs.(n) <- t.next_seq;
  t.vals.(n) <- value;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  let i = ref n in
  while !i > 0 && lt t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    swap t !i p;
    i := p
  done

let peek t = if t.len = 0 then None else Some (t.prios.(0), t.vals.(0))

let empty_top name = invalid_arg ("Heap." ^ name ^ ": empty heap")

let top_prio t = if t.len = 0 then empty_top "top_prio" else t.prios.(0)
let top t = if t.len = 0 then empty_top "top" else t.vals.(0)

let drop_top t =
  if t.len = 0 then empty_top "drop_top";
  t.len <- t.len - 1;
  let n = t.len in
  if n > 0 then begin
    t.prios.(0) <- t.prios.(n);
    t.seqs.(0) <- t.seqs.(n);
    t.vals.(0) <- t.vals.(n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < n && lt t l !smallest then smallest := l;
      if r < n && lt t r !smallest then smallest := r;
      if !smallest <> !i then begin
        swap t !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) and value = t.vals.(0) in
    drop_top t;
    Some (prio, value)
  end

let clear t = t.len <- 0

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
