module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module U = Ihnet_util

type t = {
  fabric : Fabric.t;
  reaction_delay : U.Units.ns;
  mutable placements : Placement.t list;
  mutable decisions : int;
  mutable shim_running : bool;
  mutable shim_gen : int; (* stamps tick chains so stale ones self-cancel *)
  floors : (int, float) Hashtbl.t; (* flow id -> installed floor *)
}

(* A flow that completes (or is stopped) on its own never goes through
   release_flow/detach, so its floor entry and attachment must be pruned
   here or guaranteed_of reports stale floors and the table grows
   without bound under churn. The share refresh is deferred to the next
   enforcement pass (shim tick or attach/detach) rather than run inside
   the fabric's event dispatch. *)
let on_fabric_event t = function
  | Fabric.Flow_completed (f : Flow.t) | Fabric.Flow_stopped f ->
    Hashtbl.remove t.floors f.Flow.id;
    List.iter
      (fun (p : Placement.t) ->
        p.Placement.attached <-
          List.filter (fun (g : Flow.t) -> g.Flow.id <> f.Flow.id) p.Placement.attached)
      t.placements
  | Fabric.Flow_started _ | Fabric.Fault_injected _ | Fabric.Fault_cleared _
  | Fabric.Limits_changed _ | Fabric.Config_changed _ | Fabric.Reallocated _
  | Fabric.All_faults_cleared | Fabric.Batch_started | Fabric.Batch_ended | Fabric.Synced
  | Fabric.Sensor_fault_injected _ | Fabric.Sensor_fault_cleared _ -> ()

let create fabric ?(reaction_delay = 0.0) () =
  if not (reaction_delay >= 0.0) then invalid_arg "Arbiter.create: reaction_delay must be >= 0";
  let t =
    {
      fabric;
      reaction_delay;
      placements = [];
      decisions = 0;
      shim_running = false;
      shim_gen = 0;
      floors = Hashtbl.create 32;
    }
  in
  Fabric.subscribe fabric (on_fabric_event t);
  t

let placements t = t.placements

let enforce t (flow : Flow.t) ~floor ~cap =
  t.decisions <- t.decisions + 1;
  Hashtbl.replace t.floors flow.Flow.id floor;
  let apply _ =
    if flow.Flow.state = Flow.Running then
      Fabric.set_flow_limits t.fabric flow ~floor ~cap ()
  in
  if t.reaction_delay > 0.0 then Sim.schedule (Fabric.sim t.fabric) ~after:t.reaction_delay apply
  else apply (Fabric.sim t.fabric)

let release_flow t (flow : Flow.t) =
  if Hashtbl.mem t.floors flow.Flow.id then begin
    Hashtbl.remove t.floors flow.Flow.id;
    t.decisions <- t.decisions + 1;
    if flow.Flow.state = Flow.Running then
      Fabric.set_flow_limits t.fabric flow ~floor:0.0 ~cap:infinity ()
  end

(* Recompute per-flow shares of one placement. *)
let refresh_placement t (p : Placement.t) =
  p.Placement.attached <-
    List.filter (fun (f : Flow.t) -> f.Flow.state = Flow.Running) p.Placement.attached;
  let n = List.length p.Placement.attached in
  if n > 0 then begin
    let share = p.Placement.rate *. p.Placement.floor_scale /. float_of_int n in
    let cap = if p.Placement.work_conserving then infinity else share in
    List.iter (fun f -> enforce t f ~floor:share ~cap) p.Placement.attached
  end

let has_attached t = List.exists (fun (p : Placement.t) -> p.Placement.attached <> []) t.placements

(* One fabric enforcement action for the whole pass. A pass with no
   attached flow enforces nothing, so it opens no batch: the batch's
   closing reallocation would cost an epoch and change no rate. The
   rule lives here, not in [Fabric.batch], which keeps "one epoch per
   batch" so traces that recorded empty batches still replay. *)
let refresh t =
  if has_attached t then
    Fabric.batch t.fabric (fun () -> List.iter (refresh_placement t) t.placements)

let add_placement t p =
  t.placements <- t.placements @ [ p ];
  refresh_placement t p

let remove_placement t p =
  (* by id: a structurally equal placement rebuilt elsewhere (e.g. after
     recompilation) must still remove the registered one *)
  let gone, kept =
    List.partition (fun (q : Placement.t) -> q.Placement.id = p.Placement.id) t.placements
  in
  t.placements <- kept;
  List.iter
    (fun (q : Placement.t) ->
      List.iter (release_flow t) q.Placement.attached;
      q.Placement.attached <- [])
    gone;
  if gone = [] || not (List.memq p gone) then begin
    List.iter (release_flow t) p.Placement.attached;
    p.Placement.attached <- []
  end

(* Pipes first so a flow that matches both a pipe and a hose is charged
   to the more specific guarantee. *)
let candidates_for t flow =
  let pipes, hoses =
    List.partition (fun p -> p.Placement.kind = Placement.Pipe_fwd) t.placements
  in
  List.filter (fun p -> Placement.matches p flow) (pipes @ hoses)

let attach_placement t (flow : Flow.t) =
  match candidates_for t flow with
  | [] -> None
  | p :: _ ->
    if not (List.exists (fun (f : Flow.t) -> f.Flow.id = flow.Flow.id) p.Placement.attached)
    then begin
      p.Placement.attached <- flow :: p.Placement.attached;
      refresh_placement t p
    end;
    Some p

let attach t flow = Option.is_some (attach_placement t flow)

let detach t (flow : Flow.t) =
  List.iter
    (fun p ->
      if List.exists (fun (f : Flow.t) -> f.Flow.id = flow.Flow.id) p.Placement.attached
      then begin
        p.Placement.attached <-
          List.filter (fun (f : Flow.t) -> f.Flow.id <> flow.Flow.id) p.Placement.attached;
        release_flow t flow;
        refresh_placement t p
      end)
    t.placements

let is_attached t (flow : Flow.t) =
  List.exists
    (fun p -> List.exists (fun (f : Flow.t) -> f.Flow.id = flow.Flow.id) p.Placement.attached)
    t.placements

let start_shim ?attach:attach_opt t ~period =
  if not (period > 0.0) then invalid_arg "Arbiter.start_shim: period must be > 0";
  let attach_fn = match attach_opt with Some f -> f | None -> attach t in
  if not t.shim_running then begin
    t.shim_running <- true;
    (* generation-stamp the chain: a stop_shim/start_shim pair bumps the
       generation, so the old chain's pending tick sees a stale stamp
       and dies instead of running as a second, double-enforcing chain *)
    t.shim_gen <- t.shim_gen + 1;
    let gen = t.shim_gen in
    let rec tick _ =
      if t.shim_running && gen = t.shim_gen then begin
        refresh t;
        (* with no placement nothing can attach, and with no flow there
           is nothing to classify: skip building the sorted flow list *)
        let classify = t.placements <> [] && Fabric.flow_count t.fabric > 0 in
        if classify then
          List.iter
            (fun (f : Flow.t) ->
              if f.Flow.cls = Flow.Payload && not (is_attached t f) then ignore (attach_fn f))
            (Fabric.active_flows t.fabric);
        (* A pass with nothing attached and nothing to classify does
           nothing, and so do the passes after it until another event
           runs or the run returns: only those can change what a pass
           sees. The chain goes straight to the first pass that may
           act, at the time it would have reached (MODEL.md §12). *)
        let sim = Fabric.sim t.fabric in
        if classify || has_attached t then Sim.schedule sim ~after:period tick
        else Sim.schedule_at sim (Sim.next_live sim ~period) tick
      end
    in
    Sim.schedule (Fabric.sim t.fabric) ~after:0.0 tick
  end

let stop_shim t =
  t.shim_running <- false;
  t.shim_gen <- t.shim_gen + 1
let decisions t = t.decisions

let guaranteed_of t (flow : Flow.t) =
  Option.value ~default:0.0 (Hashtbl.find_opt t.floors flow.Flow.id)

let installed_floors t =
  Hashtbl.fold (fun id floor acc -> (id, floor) :: acc) t.floors []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
