module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module T = Ihnet_topology

type loopback = {
  fabric : Fabric.t;
  read : Flow.t;
  write : Flow.t;
  mutable stopped : bool;
}

let start_loopback fabric ~tenant ~nic ?target () =
  let topo = Fabric.topology fabric in
  let nic_dev = T.Topology.device_named topo nic in
  let mem =
    match target with
    | Some name -> T.Topology.device_named topo name
    | None -> (
      match T.Topology.home_socket topo nic_dev with
      | Some s -> s
      | None -> invalid_arg ("Rdma.start_loopback: no home socket for " ^ nic))
  in
  let llc_target = T.Device.is_socket mem in
  let read =
    Fabric.start_flow fabric ~tenant
      ~path:(T.Routing.route topo mem.T.Device.name nic)
      ~size:Flow.Unbounded ()
  in
  let write =
    Fabric.start_flow fabric ~tenant ~llc_target
      ~path:(T.Routing.route topo nic mem.T.Device.name)
      ~size:Flow.Unbounded ()
  in
  { fabric; read; write; stopped = false }

let stop_loopback t =
  if not t.stopped then begin
    t.stopped <- true;
    Fabric.stop_flow t.fabric t.read;
    Fabric.stop_flow t.fabric t.write
  end

let loopback_rate t = t.read.Flow.rate +. t.write.Flow.rate

type hop_breakdown = {
  label : string;
  figure1_class : int option;
  latency : Ihnet_util.Units.ns;
}

let remote_read_breakdown fabric ~nic ~target =
  let topo = Fabric.topology fabric in
  (* enter through the named NIC, not whichever NIC is nearest *)
  let p = T.Path.concat (T.Routing.route topo "ext" nic) (T.Routing.route topo nic target) in
  List.map
    (fun (hop : T.Path.hop) ->
      let l = hop.T.Path.link in
      let a = (T.Topology.device topo l.T.Link.a).T.Device.name in
      let b = (T.Topology.device topo l.T.Link.b).T.Device.name in
      let a, b = match hop.T.Path.dir with T.Link.Fwd -> (a, b) | T.Link.Rev -> (b, a) in
      let u = Fabric.link_utilization fabric l.T.Link.id hop.T.Path.dir in
      let fault = Fabric.fault_of fabric l.T.Link.id in
      {
        label = Printf.sprintf "%s (%s->%s)" (T.Link.kind_label l.T.Link.kind) a b;
        figure1_class = T.Topology.figure1_class topo l;
        latency =
          Ihnet_engine.Latency.hop_latency ~base:l.T.Link.base_latency ~utilization:u
            ~extra:fault.Ihnet_engine.Fault.extra_latency ();
      })
    p.T.Path.hops

let intra_host_share fabric ~nic ~target =
  let hops = remote_read_breakdown fabric ~nic ~target in
  let total = List.fold_left (fun acc h -> acc +. h.latency) 0.0 hops in
  let inter =
    List.fold_left
      (fun acc h -> if h.figure1_class = Some 5 then acc +. h.latency else acc)
      0.0 hops
  in
  if total <= 0.0 then 0.0 else (total -. inter) /. total
