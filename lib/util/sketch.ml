(* Flat-array log-linear histogram. Bucket layout:
   index < sub        : linear range [0,1), bucket k covers [k/sub, (k+1)/sub)
   index >= sub       : octave o = idx/sub - 1, sub-bucket sb = idx mod sub,
                        covering [2^o (1 + sb/sub), 2^o (1 + (sb+1)/sub)).
   The octave is derived with Float.frexp — frexp v = (m, e) with
   m in [0.5, 1), v = m * 2^e — so octave = e - 1 exactly, with none of
   the round-up hazard of floor (log2 v) for v just below a power of
   two. Counts are ints and min/max exact floats; every derived
   statistic folds the counts in index order, so merged sketches are
   bit-identical under any merge grouping. *)

type t = {
  sub : int;
  max_octave : int;
  counts : int array; (* (max_octave + 2) * sub slots *)
  mutable n : int;
  mutable mn : float;
  mutable mx : float;
}

let create ?(sub = 32) ?(max_octave = 40) () =
  if sub <= 0 then invalid_arg "Sketch.create: sub must be positive";
  if max_octave < 0 then invalid_arg "Sketch.create: max_octave must be non-negative";
  {
    sub;
    max_octave;
    counts = Array.make ((max_octave + 2) * sub) 0;
    n = 0;
    mn = infinity;
    mx = neg_infinity;
  }


let bucket_of t v =
  if v < 1.0 then int_of_float (v *. float_of_int t.sub)
  else begin
    let m, e = Float.frexp v in
    (* v = m * 2^e, m in [0.5,1) -> v in [2^(e-1), 2^e) *)
    let octave = e - 1 in
    if octave > t.max_octave then Array.length t.counts - 1
    else begin
      (* position within the octave: v / 2^octave - 1 = 2m - 1 in [0,1) *)
      let sb = int_of_float (((m *. 2.0) -. 1.0) *. float_of_int t.sub) in
      let sb = if sb >= t.sub then t.sub - 1 else sb in
      ((octave + 1) * t.sub) + sb
    end
  end

let value_of t idx =
  if idx < t.sub then (float_of_int idx +. 0.5) /. float_of_int t.sub
  else begin
    let octave = (idx / t.sub) - 1 in
    let sb = idx mod t.sub in
    let base = 2.0 ** float_of_int octave in
    base +. ((float_of_int sb +. 0.5) /. float_of_int t.sub *. base)
  end

let record t v =
  if Float.is_finite v && v >= 0.0 then begin
    let idx = bucket_of t v in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.n <- t.n + 1;
    if v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v
  end

let count t = t.n

let total t =
  let acc = ref 0.0 in
  for idx = 0 to Array.length t.counts - 1 do
    let c = t.counts.(idx) in
    if c > 0 then acc := !acc +. (float_of_int c *. value_of t idx)
  done;
  !acc

let mean t = if t.n = 0 then nan else total t /. float_of_int t.n

let max_value t = if t.n = 0 then nan else t.mx
let min_value t = if t.n = 0 then nan else t.mn

let percentile t q =
  if t.n = 0 then nan
  else begin
    let target = q *. float_of_int t.n in
    let acc = ref 0.0 and result = ref t.mx in
    (try
       for idx = 0 to Array.length t.counts - 1 do
         let c = t.counts.(idx) in
         if c > 0 then begin
           acc := !acc +. float_of_int c;
           if !acc >= target then begin
             result := value_of t idx;
             raise Exit
           end
         end
       done
     with Exit -> ());
    (* bucket midpoints can stick out of the observed range (one sample
       of 513 has midpoint 520); clamp so estimates stay honest *)
    Float.min t.mx (Float.max t.mn !result)
  end

let merge dst src =
  if dst.sub <> src.sub || dst.max_octave <> src.max_octave then
    invalid_arg "Sketch.merge: geometry mismatch";
  for idx = 0 to Array.length dst.counts - 1 do
    dst.counts.(idx) <- dst.counts.(idx) + src.counts.(idx)
  done;
  dst.n <- dst.n + src.n;
  dst.mn <- Float.min dst.mn src.mn;
  dst.mx <- Float.max dst.mx src.mx

let copy t = { t with counts = Array.copy t.counts }

let fold_buckets t ~init f =
  let acc = ref init in
  for idx = 0 to Array.length t.counts - 1 do
    acc := f !acc t.counts.(idx)
  done;
  !acc

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0;
  t.mn <- infinity;
  t.mx <- neg_infinity

type snapshot = {
  s_count : int;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
  s_max : float;
}

let snapshot t =
  {
    s_count = t.n;
    s_mean = mean t;
    s_p50 = percentile t 0.5;
    s_p90 = percentile t 0.9;
    s_p99 = percentile t 0.99;
    s_p999 = percentile t 0.999;
    s_max = max_value t;
  }

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "(empty)"
  else
    Format.fprintf ppf "n=%d mean=%.1f p50=%.1f p99=%.1f p999=%.1f max=%.1f" t.n (mean t)
      (percentile t 0.5) (percentile t 0.99) (percentile t 0.999) t.mx
