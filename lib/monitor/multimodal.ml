module U = Ihnet_util

type verdict = Learning | Score of float | Alarm of float

type alarm = {
  at : U.Units.ns;
  accumulated : float;
  drivers : (string * float) list;
}

type t = {
  series : string array;
  warmup : int;
  baseline : U.Stats.Online.t array;
  mutable seen : int;
  mutable accumulator : float;
  mutable alarms : alarm list; (* newest first *)
  mutable last_fed_at : float;
}

(* CUSUM slack per sample and alarm level on the accumulated distance *)
let drift = 0.5
let threshold = 8.0

let create ?(warmup = 64) ~series () =
  if series = [] then invalid_arg "Multimodal.create: empty series list";
  if warmup <= 1 then
    invalid_arg (Printf.sprintf "Multimodal.create: warmup must be > 1 (got %d)" warmup);
  {
    series = Array.of_list series;
    warmup;
    baseline = Array.init (List.length series) (fun _ -> U.Stats.Online.create ());
    seen = 0;
    accumulator = 0.0;
    alarms = [];
    last_fed_at = neg_infinity;
  }

let zscores t x =
  Array.mapi
    (fun i v ->
      let mu = U.Stats.Online.mean t.baseline.(i) in
      (* sigma floor: a constant baseline dimension should not alarm on
         float dust, but a genuine shift must still register *)
      let sd =
        Float.max
          (U.Stats.Online.stddev t.baseline.(i))
          (0.01 *. Float.max 1e-9 (Float.abs mu))
      in
      (v -. mu) /. sd)
    x

(* standardized chi-square: ~N(0,1) under the baseline for moderate k *)
let distance t x =
  let z = zscores t x in
  let k = float_of_int (Array.length z) in
  let sum = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 z in
  (sum -. k) /. sqrt (2.0 *. k)


let observe t ~at x =
  if Array.length x <> Array.length t.series then
    invalid_arg "Multimodal.observe: arity mismatch";
  t.seen <- t.seen + 1;
  if t.seen <= t.warmup then begin
    Array.iteri (fun i v -> U.Stats.Online.add t.baseline.(i) v) x;
    Learning
  end
  else begin
    let d = distance t x in
    t.accumulator <- Float.max 0.0 (t.accumulator +. d -. drift);
    if t.accumulator > threshold then begin
      let s = t.accumulator in
      t.accumulator <- 0.0;
      let drivers =
        let z = zscores t x in
        Array.to_list (Array.mapi (fun i v -> (t.series.(i), Float.abs v)) z)
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.filteri (fun i (_, z) -> i < 5 && z > 1.0)
      in
      t.alarms <- { at; accumulated = s; drivers } :: t.alarms;
      Alarm s
    end
    else begin
      (* keep adapting on unremarkable vectors so slow drift does not
         poison the baseline *)
      if d < 1.0 then Array.iteri (fun i v -> U.Stats.Online.add t.baseline.(i) v) x;
      Score d
    end
  end

let feed t telemetry =
  let latest =
    Array.map (fun series -> Telemetry.latest telemetry ~series) t.series
  in
  if Array.exists Option.is_none latest then None
  else begin
    let samples = Array.map Option.get latest in
    let newest =
      Array.fold_left (fun acc (s : Telemetry.sample) -> Float.max acc s.Telemetry.at) 0.0 samples
    in
    (* avoid double-feeding the same tick *)
    if newest <= t.last_fed_at then None
    else begin
      t.last_fed_at <- newest;
      Some
        (observe t ~at:newest
           (Array.map (fun (s : Telemetry.sample) -> s.Telemetry.value) samples))
    end
  end

let alarms t = List.rev t.alarms
