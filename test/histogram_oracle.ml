(* The differential oracle for Ihnet_util.Sketch: the same log-linear
   bucket function and percentile walk over a sparse Hashtbl of bucket
   counts with no octave ceiling, sorted on every read. At equal [sub],
   and for values below the sketch's top octave, every count, min, max
   and percentile must match the sketch bit for bit. The octave comes
   from Float.frexp, which is exact; floor (log2 v) rounds up for v
   just below a power of two (log2 (pred 8.0) = 3.0 in doubles). *)

type t = {
  sub : int;
  counts : (int, int) Hashtbl.t; (* bucket index -> count *)
  mutable n : int;
  mutable mn : float;
  mutable mx : float;
}

let create ~sub = { sub; counts = Hashtbl.create 64; n = 0; mn = infinity; mx = neg_infinity }

let bucket_of t v =
  if v < 1.0 then int_of_float (v *. float_of_int t.sub)
  else begin
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5,1), so v in [2^(e-1), 2^e) *)
    let octave = e - 1 in
    let sb = int_of_float (((m *. 2.0) -. 1.0) *. float_of_int t.sub) in
    let sb = if sb >= t.sub then t.sub - 1 else sb in
    ((octave + 1) * t.sub) + sb
  end

let value_of t idx =
  if idx < t.sub then (float_of_int idx +. 0.5) /. float_of_int t.sub
  else begin
    let octave = (idx / t.sub) - 1 in
    let sb = idx mod t.sub in
    let base = 2.0 ** float_of_int octave in
    base +. ((float_of_int sb +. 0.5) /. float_of_int t.sub *. base)
  end

let add t v =
  if Float.is_finite v && v >= 0.0 then begin
    let idx = bucket_of t v in
    Hashtbl.replace t.counts idx (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts idx));
    t.n <- t.n + 1;
    if v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v
  end

let count t = t.n

let percentile t q =
  if t.n = 0 then nan
  else begin
    let target = q *. float_of_int t.n in
    let rec walk acc = function
      | [] -> t.mx
      | (idx, c) :: rest ->
        let acc = acc +. float_of_int c in
        if acc >= target then value_of t idx else walk acc rest
    in
    let buckets = List.sort compare (Hashtbl.fold (fun idx c acc -> (idx, c) :: acc) t.counts []) in
    Float.min t.mx (Float.max t.mn (walk 0.0 buckets))
  end

let max_value t = if t.n = 0 then nan else t.mx
let min_value t = if t.n = 0 then nan else t.mn
