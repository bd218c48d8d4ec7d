type t = { mutable clock : float; queue : (t -> unit) Ihnet_util.Heap.t }

let create () = { clock = 0.0; queue = Ihnet_util.Heap.create () }
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

(* Both loops read the queue through the heap's top accessors, which
   allocate no option or pair per event. *)
let step t =
  let q = t.queue in
  if Ihnet_util.Heap.is_empty q then false
  else begin
    let time = Ihnet_util.Heap.top_prio q and f = Ihnet_util.Heap.top q in
    Ihnet_util.Heap.drop_top q;
    t.clock <- Float.max t.clock time;
    f t;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some u ->
    let q = t.queue in
    while (not (Ihnet_util.Heap.is_empty q)) && Ihnet_util.Heap.top_prio q <= u do
      ignore (step t)
    done;
    t.clock <- Float.max t.clock u

let pending t = Ihnet_util.Heap.size t.queue
