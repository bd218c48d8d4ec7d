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
let check_fields i ~weight ~floor ~cap =
  if not (weight > 0.0) then invalidf "Fairshare: demand %d: weight must be > 0" i;
  if not (floor >= 0.0) then invalidf "Fairshare: demand %d: floor must be >= 0" i;
  if not (cap >= 0.0) then invalidf "Fairshare: demand %d: cap must be >= 0" i

(* The first broken invariant of a usage vector, as a message. *)
let usage_fault ~nr res coeff =
  let n = Array.length res in
  if Array.length coeff <> n then
    Some (Printf.sprintf "%d resources but %d coefficients" n (Array.length coeff))
  else
    let rec go j =
      if j = n then None
      else if res.(j) < 0 || res.(j) >= nr then
        Some (Printf.sprintf "resource %d out of range [0, %d)" res.(j) nr)
      else if not (coeff.(j) > 0.0) then Some "usage coefficient must be > 0"
      else go (j + 1)
    in
    go 0

let check_demand ~nr i d =
  check_fields i ~weight:d.weight ~floor:d.floor ~cap:d.cap;
  Option.iter (invalidf "Fairshare: demand %d: %s" i) (usage_fault ~nr d.res d.coeff)

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

(* {2 Usage vector tables}

   Vector [u] is the [v_len.(u)] entries of [v_res]/[v_coeff] from
   [v_start.(u)], so every vector of a table lies in two flat arrays.
   Every vector is checked over the table's [v_nr] resources when it
   enters, which is what lets [solve] trust its resources.
   [set_vector] appends at [v_top]; a vector that is replaced or
   cleared leaves a hole, and when the arrays are full they are rebuilt
   from the live vectors alone, with room for as many entries again, so
   they stay within about twice the live entries. *)

type vectors = {
  mutable v_nr : int;
  mutable v_start : int array;
  mutable v_len : int array;
  mutable v_res : int array;
  mutable v_coeff : float array;
  mutable v_top : int; (* entries handed out *)
  mutable v_live : int; (* entries of the live vectors *)
}

let vectors ~nr =
  { v_nr = nr; v_start = [||]; v_len = [||]; v_res = [||]; v_coeff = [||]; v_top = 0; v_live = 0 }

(* [a] widened to [n] cells, the new ones [fill] *)
let widen a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let clear_vector v u =
  if u >= 0 && u < Array.length v.v_len then begin
    v.v_live <- v.v_live - v.v_len.(u);
    v.v_len.(u) <- 0
  end

let set_vector v u res coeff =
  if u < 0 then invalidf "Fairshare.set_vector: id %d must be >= 0" u;
  Option.iter (invalidf "Fairshare: usage vector %d: %s" u) (usage_fault ~nr:v.v_nr res coeff);
  clear_vector v u;
  if u >= Array.length v.v_len then begin
    let size = max (u + 1) (2 * Array.length v.v_len) in
    v.v_start <- widen v.v_start size 0;
    v.v_len <- widen v.v_len size 0
  end;
  let k = Array.length res in
  if v.v_top + k > Array.length v.v_res then begin
    let size = max 16 (2 * (v.v_live + k)) in
    let res' = Array.make size 0 and coeff' = Array.make size 0.0 in
    let top = ref 0 in
    for w = 0 to Array.length v.v_len - 1 do
      let l = v.v_len.(w) in
      if l > 0 then begin
        Array.blit v.v_res v.v_start.(w) res' !top l;
        Array.blit v.v_coeff v.v_start.(w) coeff' !top l;
        v.v_start.(w) <- !top;
        top := !top + l
      end
    done;
    v.v_res <- res';
    v.v_coeff <- coeff';
    v.v_top <- !top
  end;
  Array.blit res 0 v.v_res v.v_top k;
  Array.blit coeff 0 v.v_coeff v.v_top k;
  v.v_start.(u) <- v.v_top;
  v.v_len.(u) <- k;
  v.v_top <- v.v_top + k;
  v.v_live <- v.v_live + k

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
  mutable users : int array; (* vector -> demands that use it *)
  mutable inc_d : int array; (* m: resource-major incidence -> demand *)
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
  (* [allocate]'s demands: demand [i] is vector [i] of [d_vec], laid
     out in demand order *)
  d_vec : vectors;
  mutable d_ident : int array; (* d_ident.(i) = i *)
  mutable d_weight : float array;
  mutable d_floor : float array;
  mutable d_cap : float array;
  mutable d_mult : float array; (* all 1.0 *)
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      {
        users = [||];
        inc_d = [||];
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
        d_vec = vectors ~nr:0;
        d_ident = [||];
        d_weight = [||];
        d_floor = [||];
        d_cap = [||];
        d_mult = [||];
      })

(* [a] if it holds [need] slots, else a fresh array with an eighth of
   headroom. The headroom is small on purpose: the outgrown array stays
   on the major heap until the next cycle, and doubling would raise the
   peak heap more than it saves in regrowth. *)
let grow a need fill = if Array.length a >= need then a else Array.make (need + (need / 8)) fill

(* The core. Demand [i] is [weight.(i)], [floor.(i)], [cap.(i)] and
   vector [usage.(i)] of [vec], taken [mult.(i)] times. Vectors are read
   in place; each was checked when it entered its table, and each
   demand's fields are checked here. Which demands share a vector
   changes no float operation: a sum over a demand's usage runs in
   vector order, and a sum over demands in demand order, so the rates
   depend only on the demands' values and order.

   A demand's multiplicity [k] scales each of its load and speed terms
   as [k *. (x *. c)]: at [k = 1.0] that is [x *. c], bit for bit, so a
   solve of multiplicity-1 demands is the solve of those demands. *)
let solve ~capacities vec ~n ~usage ~weight ~floor ~cap ~mult rates =
  if
    n < 0
    || n > Array.length usage
    || n > Array.length weight
    || n > Array.length floor
    || n > Array.length cap
    || n > Array.length mult
  then invalidf "Fairshare.solve: n = %d outside the demand arrays" n;
  if Array.length rates < n then
    invalidf "Fairshare.solve: output holds %d rates, fewer than n = %d" (Array.length rates) n;
  let nr = Array.length capacities in
  if vec.v_nr > nr then
    invalidf "Fairshare.solve: vectors over %d resources, capacities for %d" vec.v_nr nr;
  let nv = Array.length vec.v_len in
  let vstart = vec.v_start and vlen = vec.v_len and vres = vec.v_res and vcoeff = vec.v_coeff in
  let ws = Domain.DLS.get workspace_key in
  ws.users <- grow ws.users nv 0;
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
  (* the demands' fields, how many demands use each vector, and the
     seed rates: floors clipped by caps. The fast path is one combined
     comparison (NaN-rejecting: a NaN compares false and falls
     through); only the failing branch calls [check_fields], which
     names the exact offending field. [users] is all zero between
     calls: the count below zeroes what it reads, and a refusal here
     zeroes it before raising. *)
  let users = ws.users in
  let any_floor = ref false in
  for i = 0 to n - 1 do
    let u = usage.(i) and fl = floor.(i) and c = cap.(i) and k = mult.(i) in
    if
      not
        (weight.(i) > 0.0 && fl >= 0.0 && c >= 0.0 && k >= 1.0 && k < infinity && u >= 0 && u < nv)
    then begin
      Array.fill users 0 nv 0;
      check_fields i ~weight:weight.(i) ~floor:fl ~cap:c;
      if not (k >= 1.0 && k < infinity) then
        invalidf "Fairshare: demand %d: multiplicity must be finite and >= 1 (got %g)" i k;
      invalidf "Fairshare: demand %d: usage vector %d out of range [0, %d)" i u nv
    end;
    if fl > 0.0 then any_floor := true;
    users.(u) <- users.(u) + 1;
    rates.(i) <- Float.min fl c
  done;
  (* each resource's incidence count, the first half of the
     resource-major transpose below, into [inc_off.(r + 1)]: once per
     distinct vector, times the demands that use it *)
  let inc_off = ws.inc_off in
  Array.fill inc_off 0 (nr + 1) 0;
  let m = ref 0 and any_inf = ref false in
  for u = 0 to nv - 1 do
    let k = users.(u) in
    if k > 0 then begin
      users.(u) <- 0;
      m := !m + (k * vlen.(u));
      for j = vstart.(u) to vstart.(u) + vlen.(u) - 1 do
        let r = vres.(j) in
        inc_off.(r + 1) <- inc_off.(r + 1) + k;
        if vcoeff.(j) = infinity then any_inf := true
      done
    end
  done;
  ws.inc_d <- grow ws.inc_d !m 0;
  (* the seed rates are scaled down locally where floors are jointly
     infeasible (same law as seed_rates) *)
  let load = ws.load in
  (* With no floor above zero every seed rate is a zero, so every load
     sums to 0.0 (or NaN, under an infinite coefficient) and none
     exceeds a capacity unless that capacity is negative; the scale-down
     of a zero rate then leaves its bits as they were. The pass would
     change nothing, so it is skipped. *)
  if !any_floor then begin
    Array.fill load 0 nr 0.0;
    for i = 0 to n - 1 do
      let u = usage.(i) and k = mult.(i) in
      for j = vstart.(u) to vstart.(u) + vlen.(u) - 1 do
        load.(vres.(j)) <- load.(vres.(j)) +. (k *. (rates.(i) *. vcoeff.(j)))
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
        let u = usage.(i) in
        let f = ref 1.0 in
        for j = vstart.(u) to vstart.(u) + vlen.(u) - 1 do
          f := Float.min !f scale.(vres.(j))
        done;
        if !f < 1.0 then rates.(i) <- rates.(i) *. !f
      done
  end;
  let active = ws.active in
  for i = 0 to n - 1 do
    if vlen.(usage.(i)) = 0 then begin
      rates.(i) <- cap.(i);
      active.(i) <- false
    end
    else active.(i) <- rates.(i) < cap.(i) -. eps
  done;
  (* resource → demand incidence, CSR, from the counts in [inc_off];
     each resource lists its demands in demand order *)
  for r = 0 to nr - 1 do
    inc_off.(r + 1) <- inc_off.(r + 1) + inc_off.(r)
  done;
  let inc_d = ws.inc_d and cursor = ws.cursor in
  Array.blit inc_off 0 cursor 0 (nr + 1);
  for i = 0 to n - 1 do
    let u = usage.(i) in
    for j = vstart.(u) to vstart.(u) + vlen.(u) - 1 do
      let r = vres.(j) in
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
  (* the initial loads, then the growth speeds. With no floor above
     zero every seed rate on a usage entry is a zero, and a zero times a
     finite coefficient adds a zero to a load that starts at 0.0, so the
     loads stay 0.0 and their pass is skipped; not under an infinite
     coefficient, whose product with a zero is NaN. Whether a demand
     grows is fixed per demand, so the test is made once per demand,
     not once per usage entry. *)
  if !any_floor || !any_inf then
    for i = 0 to n - 1 do
      let ri = rates.(i) and u = usage.(i) and k = mult.(i) in
      for j = vstart.(u) to vstart.(u) + vlen.(u) - 1 do
        let r = vres.(j) in
        load.(r) <- load.(r) +. (k *. (ri *. vcoeff.(j)))
      done
    done;
  for i = 0 to n - 1 do
    if active.(i) then begin
      let w = weight.(i) and u = usage.(i) and k = mult.(i) in
      for j = vstart.(u) to vstart.(u) + vlen.(u) - 1 do
        let r = vres.(j) in
        speed.(r) <- speed.(r) +. (k *. (w *. vcoeff.(j)))
      done
    end
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
      let w = weight.(i) and u = usage.(i) and k = mult.(i) in
      rates.(i) <- Float.min cap.(i) (start_rate.(i) +. (w *. at));
      for j = vstart.(u) to vstart.(u) + vlen.(u) - 1 do
        let r = vres.(j) in
        (* [touch r at], inlined: this runs once per usage entry *)
        if at > tau_r.(r) then begin
          load.(r) <- load.(r) +. (speed.(r) *. (at -. tau_r.(r)));
          tau_r.(r) <- at
        end;
        speed.(r) <- speed.(r) -. (k *. (w *. vcoeff.(j)));
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

(* Each demand is its own vector: the demands' usage is laid out in
   [d_vec] in demand order, in one pass that also checks it. *)
let allocate ~capacities demands =
  let n = Array.length demands in
  let nr = Array.length capacities in
  let ws = Domain.DLS.get workspace_key in
  let v = ws.d_vec in
  v.v_nr <- nr;
  if Array.length ws.d_ident < n then ws.d_ident <- Array.init (n + (n / 8)) Fun.id;
  v.v_start <- grow v.v_start n 0;
  v.v_len <- grow v.v_len n 0;
  ws.d_weight <- grow ws.d_weight n 0.0;
  ws.d_floor <- grow ws.d_floor n 0.0;
  ws.d_cap <- grow ws.d_cap n 0.0;
  (* made all 1.0 and never written *)
  ws.d_mult <- grow ws.d_mult n 1.0;
  let vstart = v.v_start and vlen = v.v_len in
  let weight = ws.d_weight and floor = ws.d_floor and cap = ws.d_cap in
  let m = ref 0 in
  for i = 0 to n - 1 do
    vstart.(i) <- !m;
    m := !m + Array.length demands.(i).res
  done;
  v.v_res <- grow v.v_res !m 0;
  v.v_coeff <- grow v.v_coeff !m 0.0;
  let vres = v.v_res and vcoeff = v.v_coeff in
  (* validation is fused into the fill so each usage is read exactly
     once. The fast path is one combined comparison per demand and one
     per usage entry; only a failure calls [check_demand], which
     re-scans the demand and names the exact offending field. *)
  for i = 0 to n - 1 do
    let d = demands.(i) in
    let k = Array.length d.res and o = vstart.(i) in
    if not (d.weight > 0.0 && d.floor >= 0.0 && d.cap >= 0.0 && Array.length d.coeff = k) then
      check_demand ~nr i d;
    for j = 0 to k - 1 do
      let r = d.res.(j) and c = d.coeff.(j) in
      if not (r >= 0 && r < nr && c > 0.0) then check_demand ~nr i d;
      vres.(o + j) <- r;
      vcoeff.(o + j) <- c
    done;
    vlen.(i) <- k;
    weight.(i) <- d.weight;
    floor.(i) <- d.floor;
    cap.(i) <- d.cap
  done;
  (* the slots past [n] hold an earlier call's vectors; no demand names
     them, so [solve] never reads them *)
  let rates = Array.make n 0.0 in
  solve ~capacities v ~n ~usage:ws.d_ident ~weight ~floor ~cap ~mult:ws.d_mult rates;
  rates

(* The fabric's solver-work ledger (see the interface). *)
type stats = { solves : int; full_rebuilds : int; incremental : int; unchanged : int }
