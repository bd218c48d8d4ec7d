type t = {
  mutable clock : float;
  queue : (t -> unit) Ihnet_util.Heap.t;
  mutable tap : (float -> unit) option;
}

let create () = { clock = 0.0; queue = Ihnet_util.Heap.create (); tap = None }
let now t = t.clock
let set_tap t f = t.tap <- Some f
let clear_tap t = t.tap <- None

let schedule_at t time f =
  let time = Float.max time t.clock in
  Ihnet_util.Heap.push t.queue time f

let schedule t ~after f =
  assert (after >= 0.0);
  schedule_at t (t.clock +. after) f

let every t ~period ?until f =
  assert (period > 0.0);
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
    (match t.tap with None -> () | Some g -> g t.clock);
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
