module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module T = Ihnet_topology
module U = Ihnet_util

(* a probe must leave its source *)
let nonempty_route fabric src dst =
  let p = T.Routing.route (Fabric.topology fabric) src dst in
  if p.T.Path.hops = [] then invalid_arg "Diagnostics: src equals dst";
  p

(* {1 ihping} *)

type ping_report = { mutable sent : int; mutable lost : int; rtts : U.Sketch.t }

(* the reverse direction sees its own utilization *)
let rtt fabric ~probe_bytes p =
  Fabric.path_latency fabric ~payload_bytes:probe_bytes p
  +. Fabric.path_latency fabric ~payload_bytes:probe_bytes (T.Path.reverse p)

let ping fabric ~src ~dst ?(count = 10) ?(interval = U.Units.us 100.0) ?on_done () =
  if count <= 0 then invalid_arg "Diagnostics.ping: count must be > 0";
  if not (interval > 0.0) then invalid_arg "Diagnostics.ping: interval must be > 0";
  let p = nonempty_route fabric src dst in
  let report = { sent = 0; lost = 0; rtts = U.Sketch.create () } in
  let rng = U.Rng.split (Fabric.rng fabric) in
  let sim = Fabric.sim fabric in
  let rec probe _ =
    report.sent <- report.sent + 1;
    let loss = Fabric.probe_loss_prob fabric p in
    if U.Rng.float rng 1.0 < loss then report.lost <- report.lost + 1
    else U.Sketch.record report.rtts (rtt fabric ~probe_bytes:64 p);
    if report.sent < count then Sim.schedule sim ~after:interval probe
    else match on_done with Some cb -> cb report | None -> ()
  in
  Sim.schedule sim ~after:0.0 probe;
  report

let ping_once fabric ~src ~dst =
  let p = nonempty_route fabric src dst in
  if Fabric.probe_loss_prob fabric p >= 1.0 then None
  else Some (rtt fabric ~probe_bytes:64 p)

(* {1 ihtrace} *)

type trace_hop = {
  hop_device : string;
  link_kind : string;
  figure1_class : int option;
  base_latency : U.Units.ns;
  loaded_latency : U.Units.ns;
  utilization : float;
}

let trace fabric ~src ~dst =
  let topo = Fabric.topology fabric in
  let p = nonempty_route fabric src dst in
  List.map
    (fun (hop : T.Path.hop) ->
      let l = hop.T.Path.link in
      let entered =
        match hop.T.Path.dir with T.Link.Fwd -> l.T.Link.b | T.Link.Rev -> l.T.Link.a
      in
      let u = Fabric.link_utilization fabric l.T.Link.id hop.T.Path.dir in
      let fault = Fabric.fault_of fabric l.T.Link.id in
      {
        hop_device = (T.Topology.device topo entered).T.Device.name;
        link_kind = T.Link.kind_label l.T.Link.kind;
        figure1_class = T.Topology.figure1_class topo l;
        base_latency = l.T.Link.base_latency;
        loaded_latency =
          Ihnet_engine.Latency.hop_latency ~base:l.T.Link.base_latency ~utilization:u
            ~extra:fault.Ihnet_engine.Fault.extra_latency ();
        utilization = u;
      })
    p.T.Path.hops

(* {1 ihperf} *)

type perf_report = {
  duration : U.Units.ns;
  bytes_moved : float;
  achieved_rate : float;
  bottleneck : (T.Link.id * float) option;
}

let perf fabric ~src ~dst ?(duration = U.Units.ms 10.0) ?on_done () =
  if not (duration > 0.0) then
    invalid_arg (Printf.sprintf "Diagnostics.perf: duration must be > 0 (got %g)" duration);
  let p = nonempty_route fabric src dst in
  let flow = Fabric.start_flow fabric ~tenant:0 ~cls:Flow.Probe ~path:p ~size:Flow.Unbounded () in
  let sim = Fabric.sim fabric in
  Sim.schedule sim ~after:duration (fun _ ->
      let bottleneck =
        List.fold_left
          (fun acc (hop : T.Path.hop) ->
            let u = Fabric.link_utilization fabric hop.T.Path.link.T.Link.id hop.T.Path.dir in
            match acc with
            | Some (_, best) when best >= u -> acc
            | _ -> Some (hop.T.Path.link.T.Link.id, u))
          None p.T.Path.hops
      in
      Fabric.stop_flow fabric flow;
      let bytes = flow.Flow.transferred in
      let report =
        {
          duration;
          bytes_moved = bytes;
          achieved_rate = bytes /. (duration /. 1e9);
          bottleneck;
        }
      in
      match on_done with Some cb -> cb report | None -> ())

let perf_now fabric ~src ~dst =
  let p = nonempty_route fabric src dst in
  match Fabric.transfer_time fabric ~path:p ~bytes:1e9 with
  | None -> 0.0
  | Some t -> 1e9 /. (t /. 1e9)

(* {1 ihdump} *)

type captured_flow = {
  flow_id : int;
  tenant : int;
  cls : string;
  rate : float;
  src_dev : string;
  dst_dev : string;
}

let dump fabric ~link ?dir () =
  let topo = Fabric.topology fabric in
  let name id = (T.Topology.device topo id).T.Device.name in
  let crosses (f : Flow.t) =
    List.exists
      (fun (h : T.Path.hop) ->
        h.T.Path.link.T.Link.id = link
        && match dir with None -> true | Some d -> h.T.Path.dir = d)
      f.Flow.path.T.Path.hops
  in
  Fabric.active_flows fabric
  |> List.filter crosses
  |> List.map (fun (f : Flow.t) ->
         {
           flow_id = f.Flow.id;
           tenant = f.Flow.tenant;
           cls = Flow.cls_label f.Flow.cls;
           rate = f.Flow.rate;
           src_dev = name f.Flow.path.T.Path.src;
           dst_dev = name f.Flow.path.T.Path.dst;
         })
  |> List.sort (fun a b -> compare b.rate a.rate)
