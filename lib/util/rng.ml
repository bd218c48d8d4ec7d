type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let invalidf fmt = Printf.ksprintf invalid_arg fmt
let split t = { state = bits64 t }
let copy t = { state = t.state }
let peek t = t.state

(* The i-th derived stream is a function of (seed, i) alone — unlike
   [split] it does not advance any shared generator, so stream i is the
   same no matter how many siblings exist or in what order they are
   built. The two mix64 rounds decorrelate seeds and indices that
   differ in few bits. *)
let stream seed i =
  if i < 0 then invalid_arg "Rng.stream: negative index";
  { state = mix64 (Int64.add (mix64 (Int64.of_int seed)) (Int64.mul golden_gamma (Int64.of_int (i + 1)))) }

let int t n =
  if n <= 0 then invalidf "Rng.int: n must be > 0 (got %d)" n;
  (* keep 62 bits so the value is a non-negative OCaml int *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

(* 53 random mantissa bits -> uniform in [0,1). *)
let unit_float t =
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v *. (1.0 /. 9007199254740992.0)

let float t x = unit_float t *. x
let bool t = Int64.logand (bits64 t) 1L = 1L
let uniform t lo hi = lo +. (unit_float t *. (hi -. lo))

let exponential t mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

(* NaN fails both comparisons *)
let pareto t alpha x_min =
  if not (alpha > 0.0 && x_min > 0.0) then begin
    if not (alpha > 0.0) then invalidf "Rng.pareto: alpha must be > 0 (got %g)" alpha;
    invalidf "Rng.pareto: x_min must be > 0 (got %g)" x_min
  end;
  let u = 1.0 -. unit_float t in
  x_min /. (u ** (1.0 /. alpha))

let gaussian t mu sigma =
  let u1 = 1.0 -. unit_float t and u2 = unit_float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

(* Zipf by inversion on a cached CDF. The cache is keyed by (n, s); a
   workload typically uses one or two distinct key spaces so this stays
   tiny. *)
let zipf_cache : (int * float, float array) Hashtbl.t = Hashtbl.create 7

let zipf_cdf n s =
  match Hashtbl.find_opt zipf_cache (n, s) with
  | Some cdf -> cdf
  | None ->
    let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (w.(i) /. total);
      cdf.(i) <- !acc
    done;
    cdf.(n - 1) <- 1.0;
    Hashtbl.add zipf_cache (n, s) cdf;
    cdf

let zipf t n s =
  if n <= 0 then invalidf "Rng.zipf: n must be > 0 (got %d)" n;
  let cdf = zipf_cdf n s in
  let u = unit_float t in
  (* smallest i with cdf.(i) >= u *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1) + 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
