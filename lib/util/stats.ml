let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sum = Array.fold_left ( +. ) 0.0 xs in
    let sumsq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if sumsq <= 0.0 then nan else sum *. sum /. (float_of_int n *. sumsq)
  end

module Online = struct
  type t = {
    mutable n : int;
    mutable mu : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () = { n = 0; mu = 0.0; m2 = 0.0; mn = infinity; mx = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mu in
    t.mu <- t.mu +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mu));
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mu
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.mn
  let max t = t.mx
end

module Ewma = struct
  type t = {
    alpha : float;
    mutable avg : float;
    mutable var : float;
    mutable started : bool;
  }

  let create ~alpha =
    (* NaN fails the comparison *)
    if not (alpha > 0.0 && alpha <= 1.0) then
      invalid_arg (Printf.sprintf "Stats.Ewma.create: alpha must be in (0, 1] (got %g)" alpha);
    { alpha; avg = nan; var = 0.0; started = false }

  let add t x =
    if not t.started then begin
      t.avg <- x;
      t.var <- 0.0;
      t.started <- true
    end
    else begin
      let diff = x -. t.avg in
      (* variance update before the mean so that [var] reflects deviation
         from the pre-sample average (standard EWMV recursion) *)
      t.var <- ((1.0 -. t.alpha) *. t.var) +. (t.alpha *. diff *. diff);
      t.avg <- t.avg +. (t.alpha *. diff)
    end

  let value t = if t.started then t.avg else nan
  let stddev t = sqrt t.var

  let deviation t x =
    if not t.started then 0.0
    else
      let sd = stddev t in
      if sd <= 0.0 then 0.0 else Float.abs (x -. t.avg) /. sd
end

module Cusum = struct
  type t = {
    drift : float;
    threshold : float;
    mutable up : float;
    mutable down : float;
  }

  let create ?(drift = 0.5) ~threshold () =
    if not (threshold > 0.0) then
      invalid_arg (Printf.sprintf "Stats.Cusum.create: threshold must be > 0 (got %g)" threshold);
    { drift; threshold; up = 0.0; down = 0.0 }

  let add t ~expected ~sigma x =
    if sigma <= 0.0 then `Ok
    else begin
      let z = (x -. expected) /. sigma in
      t.up <- Float.max 0.0 (t.up +. z -. t.drift);
      t.down <- Float.max 0.0 (t.down -. z -. t.drift);
      if t.up > t.threshold then begin
        t.up <- 0.0;
        t.down <- 0.0;
        `Alarm `Up
      end
      else if t.down > t.threshold then begin
        t.up <- 0.0;
        t.down <- 0.0;
        `Alarm `Down
      end
      else `Ok
    end

  let upper t = t.up
  let lower t = t.down
end
