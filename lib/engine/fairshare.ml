module U = Ihnet_util

type demand = {
  weight : float;
  floor : float;
  cap : float;
  usage : (int * float) list;
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
  List.iter
    (fun (r, c) ->
      if r < 0 || r >= nr then
        invalidf "Fairshare: demand %d: resource %d out of range [0, %d)" i r nr;
      if not (c > 0.0) then invalidf "Fairshare: demand %d: usage coefficient must be > 0" i)
    d.usage

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
    (fun i d -> List.iter (fun (r, c) -> load.(r) <- load.(r) +. (rates.(i) *. c)) d.usage)
    demands;
  let scale = Array.make nr 1.0 in
  for r = 0 to nr - 1 do
    if load.(r) > capacities.(r) then
      scale.(r) <- (if load.(r) > 0.0 then capacities.(r) /. load.(r) else 0.0)
  done;
  Array.iteri
    (fun i d ->
      let f = List.fold_left (fun acc (r, _) -> Float.min acc scale.(r)) 1.0 d.usage in
      if f < 1.0 then rates.(i) <- rates.(i) *. f)
    demands;
  (* Demands with no usage are not resource-constrained: they simply
     get their cap; demands already at their cap never fill. *)
  let active = Array.map (fun d -> d.usage <> []) demands in
  Array.iteri (fun i d -> if d.usage = [] then rates.(i) <- d.cap) demands;
  Array.iteri (fun i d -> if rates.(i) >= d.cap -. eps then active.(i) <- false) demands;
  (rates, active)

(* {1 Reference implementation}

   Round-based progressive filling: every round scans all demands for
   the next cap hit and all used resources for the next saturation,
   advances the filling front, and freezes what it hit. O(rounds ×
   (n + Σ|usage|)) with up to n + nr rounds — quadratic under churn.
   Kept verbatim as the semantic oracle for the event-driven
   implementation below (see test/test_properties.ml). *)

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
        List.iter
          (fun (r, _) ->
            if not seen.(r) then begin
              seen.(r) <- true;
              out := r :: !out
            end)
          d.usage)
      demands;
    !out
  in
  let saturated = Array.make nr false in
  (* incremental per-resource load and per-resource active growth speed *)
  let load = Array.make nr 0.0 in
  let speed = Array.make nr 0.0 in
  Array.iteri
    (fun i d ->
      List.iter
        (fun (r, c) ->
          load.(r) <- load.(r) +. (rates.(i) *. c);
          if active.(i) then speed.(r) <- speed.(r) +. (d.weight *. c))
        d.usage)
    demands;
  let deactivate i =
    if active.(i) then begin
      active.(i) <- false;
      List.iter
        (fun (r, c) -> speed.(r) <- speed.(r) -. (demands.(i).weight *. c))
        demands.(i).usage
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
              List.iter (fun (r, c) -> load.(r) <- load.(r) +. (delta *. c)) d.usage
            end)
          demands;
        (* freeze capped demands *)
        Array.iteri
          (fun i d ->
            if active.(i) && rates.(i) >= d.cap -. (eps *. Float.max 1.0 d.cap) then begin
              List.iter (fun (r, c) -> load.(r) <- load.(r) +. ((d.cap -. rates.(i)) *. c)) d.usage;
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
                  if active.(i) && List.exists (fun (r', _) -> r' = r) d.usage then deactivate i)
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
   quadratic in the demand count. *)

type fill_event = Cap of int | Sat of int * int (* resource, version at push *)

let allocate ~capacities demands =
  let nr = Array.length capacities in
  let n = Array.length demands in
  (* Flatten usages into CSR form in one pass: every later sweep reads
     flat int/float arrays instead of chasing boxed tuple lists. The
     seeding below re-states the seed_rates law over the CSR arrays —
     any divergence is caught by the differential property test. *)
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i d -> off.(i + 1) <- List.length d.usage) demands;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let m = off.(n) in
  let ures = Array.make (max 1 m) 0 in
  let ucoef = Array.make (max 1 m) 0.0 in
  let weight = Array.make (max 1 n) 0.0 in
  let cap = Array.make (max 1 n) 0.0 in
  let k = ref 0 in
  (* validation is fused into the CSR fill so each usage list is
     traversed exactly once. The fast path is one combined comparison
     (NaN-rejecting: a NaN compares false and falls through); only the
     failing branch calls [check_demand], which re-scans the demand and
     raises [Invalid_argument] naming the exact offending field. *)
  Array.iteri
    (fun i d ->
      if not (d.weight > 0.0 && d.floor >= 0.0 && d.cap >= 0.0) then check_demand ~nr i d;
      weight.(i) <- d.weight;
      cap.(i) <- d.cap;
      List.iter
        (fun (r, c) ->
          if not (r >= 0 && r < nr && c > 0.0) then check_demand ~nr i d;
          ures.(!k) <- r;
          ucoef.(!k) <- c;
          incr k)
        d.usage)
    demands;
  (* seed rates: floors, clipped by caps, scaled down locally where
     jointly infeasible (same law as seed_rates) *)
  let rates = Array.make (max 1 n) 0.0 in
  for i = 0 to n - 1 do
    rates.(i) <- Float.min demands.(i).floor cap.(i)
  done;
  let load = Array.make nr 0.0 in
  for i = 0 to n - 1 do
    for j = off.(i) to off.(i + 1) - 1 do
      load.(ures.(j)) <- load.(ures.(j)) +. (rates.(i) *. ucoef.(j))
    done
  done;
  let any_over = ref false in
  let scale = Array.make nr 1.0 in
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
    done;
  let active = Array.make (max 1 n) false in
  for i = 0 to n - 1 do
    if off.(i + 1) = off.(i) then rates.(i) <- cap.(i)
    else active.(i) <- rates.(i) < cap.(i) -. eps
  done;
  (* resource → usage-entry incidence, CSR again *)
  let inc_off = Array.make (nr + 1) 0 in
  for j = 0 to m - 1 do
    inc_off.(ures.(j) + 1) <- inc_off.(ures.(j) + 1) + 1
  done;
  for r = 0 to nr - 1 do
    inc_off.(r + 1) <- inc_off.(r + 1) + inc_off.(r)
  done;
  let inc_d = Array.make (max 1 m) 0 in
  let cursor = Array.copy inc_off in
  for i = 0 to n - 1 do
    for j = off.(i) to off.(i + 1) - 1 do
      let r = ures.(j) in
      inc_d.(cursor.(r)) <- i;
      cursor.(r) <- cursor.(r) + 1
    done
  done;
  let saturated = Array.make nr false in
  let speed = Array.make nr 0.0 in
  let tau_r = Array.make nr 0.0 in
  let version = Array.make nr 0 in
  Array.fill load 0 nr 0.0;
  for i = 0 to n - 1 do
    for j = off.(i) to off.(i + 1) - 1 do
      let r = ures.(j) in
      load.(r) <- load.(r) +. (rates.(i) *. ucoef.(j));
      if active.(i) then speed.(r) <- speed.(r) +. (weight.(i) *. ucoef.(j))
    done
  done;
  let start_rate = Array.copy rates in
  let tau = ref 0.0 in
  let events : fill_event U.Heap.t = U.Heap.create () in
  let push_sat r =
    if (not saturated.(r)) && speed.(r) > eps then begin
      let residual = capacities.(r) -. load.(r) in
      let at = if residual <= 0.0 then !tau else tau_r.(r) +. (residual /. speed.(r)) in
      U.Heap.push events (Float.max at !tau) (Sat (r, version.(r)))
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
      rates.(i) <- Float.min cap.(i) (start_rate.(i) +. (weight.(i) *. at));
      for j = off.(i) to off.(i + 1) - 1 do
        let r = ures.(j) in
        touch r at;
        speed.(r) <- speed.(r) -. (weight.(i) *. ucoef.(j));
        (* invalidate r's in-heap saturation event; it will be
           re-keyed lazily if it surfaces before r saturates *)
        version.(r) <- version.(r) + 1
      done
    end
  in
  for i = 0 to n - 1 do
    if active.(i) && cap.(i) < infinity then
      U.Heap.push events ((cap.(i) -. rates.(i)) /. weight.(i)) (Cap i)
  done;
  for r = 0 to nr - 1 do
    push_sat r
  done;
  let continue = ref true in
  while !continue do
    match U.Heap.pop events with
    | None -> continue := false
    | Some (at, Cap i) ->
      if active.(i) then begin
        tau := Float.max !tau at;
        freeze i !tau
      end
    | Some (at, Sat (r, v)) ->
      if not saturated.(r) then begin
        if v = version.(r) then begin
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
  done;
  (* anything still active is unconstrained (possible only when every
     resource it uses has vanishing growth speed); freeze defensively
     at the current front, as the reference does *)
  for i = 0 to n - 1 do
    if active.(i) then begin
      active.(i) <- false;
      rates.(i) <- Float.min cap.(i) (start_rate.(i) +. (weight.(i) *. !tau))
    end
  done;
  if Array.length rates = n then rates else Array.sub rates 0 n

let max_min_fair ~capacities usages =
  let demands =
    Array.map (fun usage -> { weight = 1.0; floor = 0.0; cap = infinity; usage }) usages
  in
  allocate ~capacities demands

(* The fabric's solver-work ledger (see the interface). *)
type stats = { solves : int; full_rebuilds : int; incremental : int; unchanged : int }
