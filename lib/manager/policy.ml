module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module T = Ihnet_topology

type t =
  | No_management
  | Static_partition of { tenants : int list }
  | Holistic of Manager.t

type handle = { policy : t; mutable running : bool }

(* Total memory-channel bandwidth of the host: what RDT-style memory
   bandwidth allocation divides among tenants. *)
let memory_bandwidth topo =
  List.fold_left
    (fun acc (l : T.Link.t) ->
      match l.T.Link.kind with T.Link.Memory_channel -> acc +. l.T.Link.capacity | _ -> acc)
    0.0 (T.Topology.links topo)

let crosses_memory (f : Flow.t) =
  List.exists
    (fun (h : T.Path.hop) ->
      match h.T.Path.link.T.Link.kind with
      | T.Link.Memory_channel | T.Link.Intra_socket -> true
      | _ -> false)
    f.Flow.path.T.Path.hops

(* Static partition: each listed tenant's memory-crossing flows are
   jointly capped at an even share of memory bandwidth. Nothing else is
   touched — deliberately partial. *)
let static_partition_tick fabric tenants _ =
  let topo = Fabric.topology fabric in
  let share = memory_bandwidth topo /. float_of_int (max 1 (List.length tenants)) in
  List.iter
    (fun tenant ->
      let flows =
        List.filter
          (fun (f : Flow.t) ->
            f.Flow.tenant = tenant && f.Flow.cls = Flow.Payload && crosses_memory f)
          (Fabric.active_flows fabric)
      in
      let n = List.length flows in
      if n > 0 then begin
        let per_flow = share /. float_of_int n in
        List.iter (fun f -> Fabric.set_flow_limits fabric f ~cap:per_flow ()) flows
      end)
    tenants

let install fabric policy ~period =
  if not (period > 0.0) then
    invalid_arg (Printf.sprintf "Policy.install: period must be > 0 (got %g)" period);
  let handle = { policy; running = true } in
  (match policy with
  | No_management -> ()
  | Static_partition { tenants } ->
    let rec tick sim =
      if handle.running then begin
        static_partition_tick fabric tenants sim;
        Sim.schedule (Fabric.sim fabric) ~after:period tick
      end
    in
    Sim.schedule (Fabric.sim fabric) ~after:0.0 tick
  | Holistic mgr -> Manager.start_shim mgr ~period);
  handle

let uninstall handle =
  handle.running <- false;
  match handle.policy with Holistic mgr -> Manager.stop_shim mgr | _ -> ()

let label = function
  | No_management -> "no-mgmt"
  | Static_partition _ -> "static-partition"
  | Holistic _ -> "holistic"
