(* [horizon.at] is the [until] of the innermost [run ~until] in
   progress, and [neg_infinity] outside one and during a bare [step]:
   how far the clock may go before control returns to whoever drives
   the simulation. It sits in a record of its own, which holds the
   float flat, so saving and restoring it around a run stores no boxed
   float into [t] and costs no write barrier. *)
type horizon = { mutable at : float }

type t = {
  mutable clock : float;
  horizon : horizon;
  queue : (t -> unit) Ihnet_util.Heap.t;
}

let create () =
  { clock = 0.0; horizon = { at = neg_infinity }; queue = Ihnet_util.Heap.create () }
let now t = t.clock

let push t time f = Ihnet_util.Heap.push t.queue (Float.max time t.clock) f

(* Each field check is one comparison, since every event pays it. NaN
   fails [>=] and [>]; queued at NaN, an event would never run under
   [run ~until]. *)
let schedule_at t time f =
  if Float.is_nan time then invalid_arg "Sim.schedule_at: time must not be NaN";
  push t time f

let schedule t ~after f =
  if not (after >= 0.0) then
    invalid_arg (Printf.sprintf "Sim.schedule: after must be >= 0 (got %g)" after);
  push t (t.clock +. after) f

let every t ~period ?until f =
  if not (period > 0.0) then
    invalid_arg (Printf.sprintf "Sim.every: period must be > 0 (got %g)" period);
  let rec tick sim =
    match until with
    | Some u when sim.clock > u -> ()
    | _ ->
      f sim;
      (match until with
      | Some u when sim.clock +. period > u -> ()
      | _ -> schedule sim ~after:period tick)
  in
  schedule t ~after:period tick

(* A firing at [x] would run before every queued event while [x] is
   below the next one's time (at an equal time the queued event was
   pushed first, so it runs first), and before [run ~until] returns
   while [x <= horizon]. The sum repeats the chain's own
   [clock +. period] additions, so the firing returned lands on the
   time the chain would have reached. *)
let next_live t ~period =
  let q = t.queue in
  let next = if Ihnet_util.Heap.is_empty q then infinity else Ihnet_util.Heap.top_prio q in
  let x = ref (t.clock +. period) in
  while !x < next && !x <= t.horizon.at do
    x := !x +. period
  done;
  !x

(* [advance] and [drain] read the queue through the heap's top
   accessors, which allocate no option or pair per event. *)
let advance t =
  let q = t.queue in
  if Ihnet_util.Heap.is_empty q then false
  else begin
    let time = Ihnet_util.Heap.top_prio q and f = Ihnet_util.Heap.top q in
    Ihnet_util.Heap.drop_top q;
    t.clock <- Float.max t.clock time;
    f t;
    true
  end

(* [f t] with the horizon at [h], restored however [f] ends *)
let within t h f =
  let hz = t.horizon in
  let outer = hz.at in
  hz.at <- h;
  match f t with
  | r ->
    hz.at <- outer;
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    hz.at <- outer;
    Printexc.raise_with_backtrace e bt

(* The caller of [step] regains control after one event, so that event
   runs with no horizon. *)
let step t = within t neg_infinity advance

(* every event due by the horizon, which [run] sets to its [until] *)
let drain t =
  let q = t.queue in
  while (not (Ihnet_util.Heap.is_empty q)) && Ihnet_util.Heap.top_prio q <= t.horizon.at do
    ignore (advance t)
  done

let run ?until t =
  match until with
  | None -> while advance t do () done
  | Some u ->
    within t u drain;
    t.clock <- Float.max t.clock u

let pending t = Ihnet_util.Heap.size t.queue
