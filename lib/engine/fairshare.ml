module U = Ihnet_util

type demand = {
  weight : float;
  floor : float;
  cap : float;
  res : int array;
  coeff : float array;
}

let eps = 1e-9

let invalidf fmt = Printf.ksprintf invalid_arg fmt

(* Input validation raises [Invalid_argument] — deliberately not
   [assert], which vanishes under [-noassert]/release builds: a NaN
   weight or negative coefficient that silently enters the solver
   corrupts every rate downstream, far more expensive to debug than
   these comparisons are to run. The [not (...)] form keeps the
   NaN-rejecting behavior the asserts had. *)
let check_demand ~nr i d =
  if not (d.weight > 0.0) then invalidf "Fairshare: demand %d: weight must be > 0" i;
  if not (d.floor >= 0.0) then invalidf "Fairshare: demand %d: floor must be >= 0" i;
  if not (d.cap >= 0.0) then invalidf "Fairshare: demand %d: cap must be >= 0" i;
  if Array.length d.coeff <> Array.length d.res then
    invalidf "Fairshare: demand %d: %d resources but %d coefficients" i (Array.length d.res)
      (Array.length d.coeff);
  Array.iteri
    (fun j r ->
      if r < 0 || r >= nr then
        invalidf "Fairshare: demand %d: resource %d out of range [0, %d)" i r nr;
      if not (d.coeff.(j) > 0.0) then
        invalidf "Fairshare: demand %d: usage coefficient must be > 0" i)
    d.res

(* [f r c] for each (resource, coefficient) pair of [d], in hop order *)
let iter_usage f d = Array.iteri (fun j r -> f r d.coeff.(j)) d.res

let validate ~capacities demands =
  let nr = Array.length capacities in
  Array.iteri (fun i d -> check_demand ~nr i d) demands

(* Floor feasibility. Each over-committed resource r gets a scale
   s_r = cap_r / load_r < 1; a demand's floor is scaled by the worst
   s_r among the resources it uses. This keeps infeasibility local: a
   dead link only shrinks the guarantees of the flows crossing it.
   Returns the initial (post-floor) rates and the active set. *)
let seed_rates ~capacities demands =
  let nr = Array.length capacities in
  let rates = Array.map (fun d -> Float.min d.floor d.cap) demands in
  let load = Array.make nr 0.0 in
  Array.iteri
    (fun i d -> iter_usage (fun r c -> load.(r) <- load.(r) +. (rates.(i) *. c)) d)
    demands;
  let scale = Array.make nr 1.0 in
  for r = 0 to nr - 1 do
    if load.(r) > capacities.(r) then
      scale.(r) <- (if load.(r) > 0.0 then capacities.(r) /. load.(r) else 0.0)
  done;
  Array.iteri
    (fun i d ->
      let f = Array.fold_left (fun acc r -> Float.min acc scale.(r)) 1.0 d.res in
      if f < 1.0 then rates.(i) <- rates.(i) *. f)
    demands;
  (* Demands with no usage are not resource-constrained: they simply
     get their cap; demands already at their cap never fill. *)
  let active = Array.map (fun d -> Array.length d.res > 0) demands in
  Array.iteri (fun i d -> if Array.length d.res = 0 then rates.(i) <- d.cap) demands;
  Array.iteri (fun i d -> if rates.(i) >= d.cap -. eps then active.(i) <- false) demands;
  (rates, active)

(* {1 Reference implementation}

   Round-based progressive filling: every round scans all demands for
   the next cap hit and all used resources for the next saturation,
   advances the filling front, and freezes what it hit. O(rounds ×
   (n + Σ|usage|)) with up to n + nr rounds — quadratic under churn.
   Kept as the semantic oracle for the event-driven implementation
   below (see test/test_properties.ml). *)

let allocate_reference ~capacities demands =
  let n = Array.length demands in
  let nr = Array.length capacities in
  validate ~capacities demands;
  let rates, active = seed_rates ~capacities demands in
  (* Only resources some demand actually uses can ever saturate; on a
     large host most links are idle, so iterate over the used set. *)
  let used_resources =
    let seen = Array.make nr false in
    let out = ref [] in
    Array.iter
      (fun d ->
        Array.iter
          (fun r ->
            if not seen.(r) then begin
              seen.(r) <- true;
              out := r :: !out
            end)
          d.res)
      demands;
    !out
  in
  let saturated = Array.make nr false in
  (* incremental per-resource load and per-resource active growth speed *)
  let load = Array.make nr 0.0 in
  let speed = Array.make nr 0.0 in
  Array.iteri
    (fun i d ->
      iter_usage
        (fun r c ->
          load.(r) <- load.(r) +. (rates.(i) *. c);
          if active.(i) then speed.(r) <- speed.(r) +. (d.weight *. c))
        d)
    demands;
  let deactivate i =
    if active.(i) then begin
      active.(i) <- false;
      iter_usage
        (fun r c -> speed.(r) <- speed.(r) -. (demands.(i).weight *. c))
        demands.(i)
    end
  in
  let continue = ref true in
  let guard = ref (n + nr + 2) in
  while !continue && !guard > 0 do
    decr guard;
    let any_active = Array.exists Fun.id active in
    if not any_active then continue := false
    else begin
      (* time to saturate each used resource *)
      let dt = ref infinity in
      List.iter
        (fun r ->
          if (not saturated.(r)) && speed.(r) > eps then begin
            let res = capacities.(r) -. load.(r) in
            if res <= eps then dt := 0.0 else dt := Float.min !dt (res /. speed.(r))
          end)
        used_resources;
      (* time for each active demand to hit its cap *)
      Array.iteri
        (fun i d ->
          if active.(i) && d.cap < infinity then
            dt := Float.min !dt ((d.cap -. rates.(i)) /. d.weight))
        demands;
      if !dt = infinity then begin
        (* nothing constrains the remaining demands (cannot happen with
           finite capacities on every used resource); freeze defensively *)
        Array.iteri (fun i a -> if a then deactivate i) active;
        continue := false
      end
      else begin
        let dt = Float.max !dt 0.0 in
        Array.iteri
          (fun i d ->
            if active.(i) then begin
              let delta = d.weight *. dt in
              rates.(i) <- rates.(i) +. delta;
              iter_usage (fun r c -> load.(r) <- load.(r) +. (delta *. c)) d
            end)
          demands;
        (* freeze capped demands *)
        Array.iteri
          (fun i d ->
            if active.(i) && rates.(i) >= d.cap -. (eps *. Float.max 1.0 d.cap) then begin
              iter_usage (fun r c -> load.(r) <- load.(r) +. ((d.cap -. rates.(i)) *. c)) d;
              rates.(i) <- d.cap;
              deactivate i
            end)
          demands;
        (* saturate resources and freeze their demands *)
        List.iter
          (fun r ->
            if
              (not saturated.(r))
              && capacities.(r) -. load.(r) <= eps *. Float.max 1.0 capacities.(r)
            then begin
              saturated.(r) <- true;
              Array.iteri
                (fun i d ->
                  if active.(i) && Array.mem r d.res then deactivate i)
                demands
            end)
          used_resources
      end
    end
  done;
  rates

(* {1 Event-driven implementation}

   Same progressive filling, computed as a discrete-event sweep over a
   virtual fill time τ. While active, demand i's rate is
   rate_i(τ) = start_i + w_i·τ, so the next constraint it can hit is
   known in closed form: a cap hit at τ = (cap_i − start_i)/w_i, and a
   resource saturation at τ = τ_r + residual_r/speed_r. Both event
   kinds go into one min-heap; processing an event freezes demands and
   lowers the growth speed of exactly the resources they use (found
   via a resource→demand incidence index).

   Saturation events use lazy re-insert: each resource keeps at most
   one event in the heap, stamped with the resource's version at push
   time. A freeze bumps the versions of the resources it touches
   without pushing anything; when a stale event reaches the top it is
   re-keyed from the current residual and re-pushed. This is sound
   because speeds only ever decrease, so the true saturation time only
   moves later — a stale event fires early, never late.

   Each demand freezes once and each resource saturates at most once,
   so the total work is O((n + Σ|usage|) · log) plus O(nr) array
   setup — linear in the touched contention component rather than
   quadratic in the demand count.

   Events are ints in one [int U.Heap.t]: a cap hit of demand i is
   [i], a saturation of resource r is [-r - 1]. The version a
   saturation event was pushed at lives in [sat_version.(r)]: a
   resource has at most one live saturation event, because it is
   re-pushed only after its stale event pops. *)

(* {2 Solver workspace}

   Every array the sweep needs, kept between calls and grown only when
   a problem outgrows it. OCaml allocates any array over 256 words
   directly on the major heap, so a per-call set of them on a
   1000-demand component is a dozen major-heap arrays that all die
   together at the end of the call. Each domain has its own workspace
   ([Domain.DLS]), so fleet-pool domains solving at once never share
   one. A call resets every slot it reads before reading it, so results
   do not depend on what the workspace solved before. *)

type workspace = {
  mutable off : int array; (* n + 1: demand -> first usage entry (CSR) *)
  mutable ures : int array; (* m: usage entry -> resource *)
  mutable ucoef : float array; (* m: usage entry -> coefficient *)
  mutable inc_d : int array; (* m: resource-major incidence -> demand *)
  mutable weight : float array; (* n *)
  mutable cap : float array; (* n *)
  mutable start_rate : float array; (* n: rate at fill time 0 *)
  mutable active : bool array; (* n *)
  mutable load : float array; (* nr *)
  mutable scale : float array; (* nr: floor scale-down *)
  mutable speed : float array; (* nr: growth speed of the load *)
  mutable tau_r : float array; (* nr: virtual time load was brought to *)
  mutable saturated : bool array; (* nr *)
  mutable version : int array; (* nr: bumped by each incident freeze *)
  mutable sat_version : int array; (* nr: version at the live event's push *)
  mutable inc_off : int array; (* nr + 1: resource -> first incidence entry *)
  mutable cursor : int array; (* nr + 1: transpose fill cursor *)
  events : int U.Heap.t;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      {
        off = [||];
        ures = [||];
        ucoef = [||];
        inc_d = [||];
        weight = [||];
        cap = [||];
        start_rate = [||];
        active = [||];
        load = [||];
        scale = [||];
        speed = [||];
        tau_r = [||];
        saturated = [||];
        version = [||];
        sat_version = [||];
        inc_off = [||];
        cursor = [||];
        events = U.Heap.create ();
      })

(* [a] if it holds [need] slots, else a fresh array with an eighth of
   headroom. The headroom is small on purpose: the outgrown array stays
   on the major heap until the next cycle, and doubling would raise the
   peak heap more than it saves in regrowth. *)
let grow a need fill = if Array.length a >= need then a else Array.make (need + (need / 8)) fill

let allocate_into ~capacities ~n demands out =
  if n < 0 || n > Array.length demands then
    invalidf "Fairshare.allocate_into: n = %d outside [0, %d]" n (Array.length demands);
  if Array.length out < n then
    invalidf "Fairshare.allocate_into: output holds %d rates, fewer than n = %d"
      (Array.length out) n;
  let nr = Array.length capacities in
  let ws = Domain.DLS.get workspace_key in
  ws.off <- grow ws.off (n + 1) 0;
  ws.weight <- grow ws.weight n 0.0;
  ws.cap <- grow ws.cap n 0.0;
  ws.start_rate <- grow ws.start_rate n 0.0;
  ws.active <- grow ws.active n false;
  ws.load <- grow ws.load nr 0.0;
  ws.scale <- grow ws.scale nr 0.0;
  ws.speed <- grow ws.speed nr 0.0;
  ws.tau_r <- grow ws.tau_r nr 0.0;
  ws.saturated <- grow ws.saturated nr false;
  ws.version <- grow ws.version nr 0;
  ws.sat_version <- grow ws.sat_version nr 0;
  ws.inc_off <- grow ws.inc_off (nr + 1) 0;
  ws.cursor <- grow ws.cursor (nr + 1) 0;
  (* Concatenate the demands' usage arrays into CSR form in one pass:
     every later sweep reads them by offset. The seeding below re-states
     the seed_rates law over the CSR arrays — any divergence is caught
     by the differential property test. *)
  let off = ws.off in
  off.(0) <- 0;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + Array.length demands.(i).res
  done;
  let m = off.(n) in
  ws.ures <- grow ws.ures m 0;
  ws.ucoef <- grow ws.ucoef m 0.0;
  ws.inc_d <- grow ws.inc_d m 0;
  let ures = ws.ures and ucoef = ws.ucoef and weight = ws.weight and cap = ws.cap in
  (* the fill also counts each resource's usage entries, the first half
     of the resource-major transpose below, into [inc_off.(r + 1)] *)
  let inc_off = ws.inc_off in
  Array.fill inc_off 0 (nr + 1) 0;
  let any_floor = ref false in
  (* validation is fused into the CSR fill so each usage is read
     exactly once. The fast path is one combined comparison
     (NaN-rejecting: a NaN compares false and falls through); only the
     failing branch calls [check_demand], which re-scans the demand and
     raises [Invalid_argument] naming the exact offending field. *)
  for i = 0 to n - 1 do
    let d = demands.(i) in
    let k = Array.length d.res and o = off.(i) in
    if not (d.weight > 0.0 && d.floor >= 0.0 && d.cap >= 0.0 && Array.length d.coeff = k) then
      check_demand ~nr i d;
    if d.floor > 0.0 then any_floor := true;
    weight.(i) <- d.weight;
    cap.(i) <- d.cap;
    for j = 0 to k - 1 do
      let r = d.res.(j) and c = d.coeff.(j) in
      if not (r >= 0 && r < nr && c > 0.0) then check_demand ~nr i d;
      ures.(o + j) <- r;
      ucoef.(o + j) <- c;
      inc_off.(r + 1) <- inc_off.(r + 1) + 1
    done
  done;
  (* seed rates: floors, clipped by caps, scaled down locally where
     jointly infeasible (same law as seed_rates) *)
  let rates = out in
  for i = 0 to n - 1 do
    rates.(i) <- Float.min demands.(i).floor cap.(i)
  done;
  let load = ws.load in
  (* With no floor above zero every seed rate is a zero, so every load
     sums to 0.0 (or NaN, under an infinite coefficient) and none
     exceeds a capacity unless that capacity is negative; the scale-down
     of a zero rate then leaves its bits as they were. The pass would
     change nothing, so it is skipped. *)
  if !any_floor then begin
    Array.fill load 0 nr 0.0;
    for i = 0 to n - 1 do
      for j = off.(i) to off.(i + 1) - 1 do
        load.(ures.(j)) <- load.(ures.(j)) +. (rates.(i) *. ucoef.(j))
      done
    done;
    let any_over = ref false in
    let scale = ws.scale in
    Array.fill scale 0 nr 1.0;
    for r = 0 to nr - 1 do
      if load.(r) > capacities.(r) then begin
        any_over := true;
        scale.(r) <- (if load.(r) > 0.0 then capacities.(r) /. load.(r) else 0.0)
      end
    done;
    if !any_over then
      for i = 0 to n - 1 do
        let f = ref 1.0 in
        for j = off.(i) to off.(i + 1) - 1 do
          f := Float.min !f scale.(ures.(j))
        done;
        if !f < 1.0 then rates.(i) <- rates.(i) *. !f
      done
  end;
  let active = ws.active in
  for i = 0 to n - 1 do
    if off.(i + 1) = off.(i) then begin
      rates.(i) <- cap.(i);
      active.(i) <- false
    end
    else active.(i) <- rates.(i) < cap.(i) -. eps
  done;
  (* resource → usage-entry incidence, CSR again, from the counts the
     fill left in [inc_off] *)
  for r = 0 to nr - 1 do
    inc_off.(r + 1) <- inc_off.(r + 1) + inc_off.(r)
  done;
  let inc_d = ws.inc_d and cursor = ws.cursor in
  Array.blit inc_off 0 cursor 0 (nr + 1);
  for i = 0 to n - 1 do
    for j = off.(i) to off.(i + 1) - 1 do
      let r = ures.(j) in
      inc_d.(cursor.(r)) <- i;
      cursor.(r) <- cursor.(r) + 1
    done
  done;
  let saturated = ws.saturated and speed = ws.speed and tau_r = ws.tau_r in
  let version = ws.version and sat_version = ws.sat_version in
  Array.fill saturated 0 nr false;
  Array.fill speed 0 nr 0.0;
  Array.fill tau_r 0 nr 0.0;
  Array.fill version 0 nr 0;
  Array.fill load 0 nr 0.0;
  (* whether a demand grows is fixed per demand, so the test is made
     once per demand, not once per usage entry *)
  for i = 0 to n - 1 do
    let ri = rates.(i) in
    if active.(i) then begin
      let w = weight.(i) in
      for j = off.(i) to off.(i + 1) - 1 do
        let r = ures.(j) in
        load.(r) <- load.(r) +. (ri *. ucoef.(j));
        speed.(r) <- speed.(r) +. (w *. ucoef.(j))
      done
    end
    else
      for j = off.(i) to off.(i + 1) - 1 do
        let r = ures.(j) in
        load.(r) <- load.(r) +. (ri *. ucoef.(j))
      done
  done;
  let start_rate = ws.start_rate in
  Array.blit rates 0 start_rate 0 n;
  let tau = ref 0.0 in
  let events = ws.events in
  U.Heap.clear events;
  let push_sat r =
    if (not saturated.(r)) && speed.(r) > eps then begin
      let residual = capacities.(r) -. load.(r) in
      let at = if residual <= 0.0 then !tau else tau_r.(r) +. (residual /. speed.(r)) in
      sat_version.(r) <- version.(r);
      U.Heap.push events (Float.max at !tau) (-r - 1)
    end
  in
  (* bring load.(r) forward to virtual time [at] *)
  let touch r at =
    if at > tau_r.(r) then begin
      load.(r) <- load.(r) +. (speed.(r) *. (at -. tau_r.(r)));
      tau_r.(r) <- at
    end
  in
  let freeze i at =
    if active.(i) then begin
      active.(i) <- false;
      let w = weight.(i) in
      rates.(i) <- Float.min cap.(i) (start_rate.(i) +. (w *. at));
      for j = off.(i) to off.(i + 1) - 1 do
        let r = ures.(j) in
        (* [touch r at], inlined: this runs once per usage entry *)
        if at > tau_r.(r) then begin
          load.(r) <- load.(r) +. (speed.(r) *. (at -. tau_r.(r)));
          tau_r.(r) <- at
        end;
        speed.(r) <- speed.(r) -. (w *. ucoef.(j));
        (* invalidate r's in-heap saturation event; it will be
           re-keyed lazily if it surfaces before r saturates *)
        version.(r) <- version.(r) + 1
      done
    end
  in
  for i = 0 to n - 1 do
    if active.(i) && cap.(i) < infinity then
      U.Heap.push events ((cap.(i) -. rates.(i)) /. weight.(i)) i
  done;
  for r = 0 to nr - 1 do
    push_sat r
  done;
  while not (U.Heap.is_empty events) do
    let at = U.Heap.top_prio events and ev = U.Heap.top events in
    U.Heap.drop_top events;
    if ev >= 0 then begin
      (* cap hit of demand [ev] *)
      if active.(ev) then begin
        tau := Float.max !tau at;
        freeze ev !tau
      end
    end
    else begin
      let r = -ev - 1 in
      if not saturated.(r) then begin
        if sat_version.(r) = version.(r) then begin
          (* no incident freeze since push: the key is exact *)
          tau := Float.max !tau at;
          saturated.(r) <- true;
          touch r !tau;
          for jj = inc_off.(r) to inc_off.(r + 1) - 1 do
            let i = inc_d.(jj) in
            if active.(i) then freeze i !tau
          done
        end
        else
          (* speeds dropped since push, so r saturates later (or
             never); re-key from the current residual *)
          push_sat r
      end
    end
  done;
  (* anything still active is unconstrained (possible only when every
     resource it uses has vanishing growth speed); freeze defensively
     at the current front, as the reference does *)
  for i = 0 to n - 1 do
    if active.(i) then begin
      active.(i) <- false;
      rates.(i) <- Float.min cap.(i) (start_rate.(i) +. (weight.(i) *. !tau))
    end
  done

let allocate ~capacities demands =
  let n = Array.length demands in
  let rates = Array.make n 0.0 in
  allocate_into ~capacities ~n demands rates;
  rates

(* The fabric's solver-work ledger (see the interface). *)
type stats = { solves : int; full_rebuilds : int; incremental : int; unchanged : int }
