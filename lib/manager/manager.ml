module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module T = Ihnet_topology

type error = Mgr_error.t =
  | Invalid_intent of string
  | Unknown_device of string
  | No_home_socket of { device : string; socket : string }
  | No_path of { src : string; dst : string }
  | No_uplink of string
  | No_downlink of string
  | Capacity_exhausted of { tenant : int; rate : float; best_ratio : float }
  | Not_a_pipe
  | No_alternate_path
  | Host_unreachable of string
  | Retries_exhausted of { host : string; command : string }
  | No_feasible_host of { tenant : int }

let error_to_string = Mgr_error.to_string

type t = {
  fabric : Fabric.t;
  scheduler : Scheduler.t;
  arbiter : Arbiter.t;
  mutable live : Placement.t list;
}

let create fabric ?(headroom = 0.9) ?reaction_delay () =
  {
    fabric;
    scheduler = Scheduler.create (Fabric.topology fabric) ~headroom ();
    arbiter = Arbiter.create fabric ?reaction_delay ();
    live = [];
  }

let fabric t = t.fabric
let scheduler t = t.scheduler
let arbiter t = t.arbiter

let submit t intent =
  let ( let* ) = Result.bind in
  let* reqs = Interpreter.compile (Fabric.topology t.fabric) intent in
  let* placements = Scheduler.place_all t.scheduler reqs in
  List.iter
    (fun p ->
      t.live <- p :: t.live;
      Arbiter.add_placement t.arbiter p)
    placements;
  Ok placements

let revoke t ~tenant =
  let gone, kept = List.partition (fun p -> p.Placement.tenant = tenant) t.live in
  t.live <- kept;
  List.iter
    (fun p ->
      Arbiter.remove_placement t.arbiter p;
      Scheduler.release t.scheduler p)
    gone

let placements t = t.live

let tenants t =
  List.sort_uniq compare (List.map (fun p -> p.Placement.tenant) t.live)

(* Attach, then reconcile: if a pipe placement's reserved route is not
   the route the flow actually takes (parallel NICs, P2P shortcuts),
   migrate the reservation onto the real path so the ledger stays
   truthful. Hoses are route-agnostic by construction. *)
let attach t (flow : Ihnet_engine.Flow.t) =
  match Arbiter.attach_placement t.arbiter flow with
  | None -> false
  | Some p ->
    (if p.Placement.kind = Placement.Pipe_fwd then begin
       let same_route =
         List.map (fun (h : Ihnet_topology.Path.hop) -> h.Ihnet_topology.Path.link.Ihnet_topology.Link.id)
           p.Placement.path.Ihnet_topology.Path.hops
         = List.map
             (fun (h : Ihnet_topology.Path.hop) -> h.Ihnet_topology.Path.link.Ihnet_topology.Link.id)
             flow.Ihnet_engine.Flow.path.Ihnet_topology.Path.hops
       in
       if not same_route then
         ignore (Scheduler.move t.scheduler p flow.Ihnet_engine.Flow.path)
     end);
    true

let detach t flow = Arbiter.detach t.arbiter flow
let start_shim t ~period = Arbiter.start_shim ~attach:(attach t) t.arbiter ~period
let stop_shim t = Arbiter.stop_shim t.arbiter

let path_links (p : T.Path.t) =
  List.map (fun (h : T.Path.hop) -> h.T.Path.link.T.Link.id) p.T.Path.hops

let affected_placements t link =
  List.filter (fun (p : Placement.t) -> List.mem link (path_links p.Placement.path)) t.live

(* Re-place one pipe placement onto a pathway avoiding [avoid]:
   recompile the equivalent intent through the interpreter for fresh
   candidates, migrate the reservation (Scheduler.move), then migrate
   the attached flows — each is stopped (the arbiter prunes its floor)
   and restarted on the new route with its demand, weight and remaining
   bytes carried over, modelling the application reconnecting after the
   supervisor re-programmed its I/O path. Hoses are anchored to their
   endpoint's only uplink and cannot be re-placed. *)
let replace_placement t ~avoid (p : Placement.t) =
  let ( let* ) = Result.bind in
  if p.Placement.kind <> Placement.Pipe_fwd then Error Mgr_error.Not_a_pipe
  else begin
    let topo = Fabric.topology t.fabric in
    let name d = (T.Topology.device topo d).T.Device.name in
    let intent =
      {
        (Intent.pipe ~tenant:p.Placement.tenant
           ~src:(name p.Placement.path.T.Path.src)
           ~dst:(name p.Placement.path.T.Path.dst)
           ~rate:p.Placement.rate)
        with
        Intent.latency_bound = p.Placement.latency_bound;
        p99_bound = p.Placement.p99_bound;
        work_conserving = p.Placement.work_conserving;
      }
    in
    let* reqs = Interpreter.compile topo intent in
    let candidates =
      List.concat_map (fun (r : Interpreter.requirement) -> r.Interpreter.candidates) reqs
      |> List.filter (fun (c : T.Path.t) ->
             let links = path_links c in
             (not (List.exists (fun l -> List.mem l links) avoid))
             && links <> path_links p.Placement.path)
    in
    let rec try_move = function
      | [] -> Error Mgr_error.No_alternate_path
      | c :: rest -> if Scheduler.move t.scheduler p c then Ok c else try_move rest
    in
    let* new_path = try_move candidates in
    let to_migrate =
      List.filter (fun (f : Flow.t) -> f.Flow.state = Flow.Running) p.Placement.attached
    in
    Fabric.batch t.fabric (fun () ->
        List.iter
          (fun (f : Flow.t) ->
            Fabric.stop_flow t.fabric f;
            let size =
              match f.Flow.size with
              | Flow.Unbounded -> Flow.Unbounded
              | Flow.Bytes _ -> Flow.Bytes (Float.max f.Flow.remaining 1.0)
            in
            let g =
              Fabric.start_flow t.fabric ~tenant:f.Flow.tenant ~cls:f.Flow.cls
                ~weight:f.Flow.weight ~demand:f.Flow.demand ~payload_bytes:f.Flow.payload_bytes
                ~llc_target:f.Flow.llc_target
                ?on_complete:f.Flow.on_complete ~path:new_path ~size ()
            in
            ignore (Arbiter.attach_placement t.arbiter g))
          to_migrate);
    Ok new_path
  end

let vnet t ~tenant = Vnet.build (Fabric.topology t.fabric) ~placements:t.live ~tenant

let decisions t = Arbiter.decisions t.arbiter

let guaranteed_throughput t ~tenant =
  List.fold_left
    (fun acc p -> if p.Placement.tenant = tenant then acc +. p.Placement.rate else acc)
    0.0 t.live
