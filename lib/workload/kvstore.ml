module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module T = Ihnet_topology
module U = Ihnet_util

type config = {
  tenant : int;
  nic : string;
  target : [ `Llc | `Dimm of string ];
  request_rate : float;
  request_bytes : float;
  response_bytes : float;
  think_time : U.Units.ns;
  sample_rate : float;
}

let default_config ~tenant ~nic =
  {
    tenant;
    nic;
    target = `Llc;
    request_rate = 100_000.0;
    request_bytes = 512.0;
    response_bytes = 1024.0;
    think_time = 2_000.0;
    sample_rate = 20_000.0;
  }

type t = {
  fabric : Fabric.t;
  config : config;
  inbound : Flow.t;  (* ext -> memory *)
  outbound : Flow.t; (* memory -> ext *)
  req_path : T.Path.t;
  resp_path : T.Path.t;
  lat : U.Sketch.t;
  mutable stopped : bool;
}

let start fabric ?rng config =
  if not (config.request_rate > 0.0) then
    invalid_arg
      (Printf.sprintf "Kvstore.start: request_rate must be > 0 (got %g)" config.request_rate);
  if not (config.sample_rate > 0.0) then
    invalid_arg
      (Printf.sprintf "Kvstore.start: sample_rate must be > 0 (got %g)" config.sample_rate);
  let rng = match rng with Some r -> r | None -> U.Rng.split (Fabric.rng fabric) in
  let topo = Fabric.topology fabric in
  let llc_target, target =
    match config.target with
    | `Llc -> (
      let nic = T.Topology.device_named topo config.nic in
      match T.Topology.home_socket topo nic with
      | Some s -> (true, s.T.Device.name)
      | None -> invalid_arg ("Kvstore.start: no home socket for " ^ config.nic))
    | `Dimm name -> (false, name)
  in
  (* route via the configured NIC: shortest ext->target would be free
     to pick any NIC on the host *)
  let req_path =
    T.Path.concat (T.Routing.route topo "ext" config.nic) (T.Routing.route topo config.nic target)
  in
  (* the response retraces the request's route *)
  let resp_path = T.Path.reverse req_path in
  let in_rate = config.request_rate *. config.request_bytes in
  let out_rate = config.request_rate *. config.response_bytes in
  let payload b = max 1 (int_of_float (Float.min b 4096.0)) in
  let inbound =
    Fabric.start_flow fabric ~tenant:config.tenant ~demand:in_rate
      ~payload_bytes:(payload config.request_bytes) ~llc_target ~path:req_path
      ~size:Flow.Unbounded ()
  in
  let outbound =
    Fabric.start_flow fabric ~tenant:config.tenant ~demand:out_rate
      ~payload_bytes:(payload config.response_bytes) ~path:resp_path ~size:Flow.Unbounded ()
  in
  let t =
    {
      fabric;
      config;
      inbound;
      outbound;
      req_path;
      resp_path;
      lat = U.Sketch.create ();
      stopped = false;
    }
  in
  let sim = Fabric.sim fabric in
  let intmod =
    (T.Topology.config (Fabric.topology fabric)).T.Hostconfig.interrupt_moderation
  in
  let rec sample _ =
    if not t.stopped then begin
      (* flow-aware latency: when the arbiter has installed guarantees
         on the store's flows, WFQ delay isolation applies *)
      let l_req =
        Fabric.flow_path_latency fabric
          ~payload_bytes:(int_of_float config.request_bytes)
          t.inbound
      in
      let l_resp =
        Fabric.flow_path_latency fabric
          ~payload_bytes:(int_of_float config.response_bytes)
          t.outbound
      in
      (* queueing at the server when offered load outruns allocation *)
      let backlog_penalty =
        let achieved_reqs = Float.min t.inbound.Flow.rate in_rate /. config.request_bytes in
        if achieved_reqs < config.request_rate *. 0.999 && achieved_reqs > 0.0 then
          (* saturated server queue: latency dominated by drain rate *)
          U.Units.us 50.0 *. (config.request_rate /. achieved_reqs)
        else 0.0
      in
      (* server-side variability: scheduling jitter on top of the mean
         think time (exponential, 30% of the mean) — without it the
         fluid model yields a perfectly flat latency distribution *)
      let jitter = U.Rng.exponential rng (0.3 *. config.think_time) in
      U.Sketch.record t.lat
        (l_req +. l_resp +. config.think_time +. jitter +. (2.0 *. intmod) +. backlog_penalty);
      Sim.schedule sim ~after:(U.Rng.exponential rng (1e9 /. config.sample_rate)) sample
    end
  in
  Sim.schedule sim ~after:(U.Rng.exponential rng (1e9 /. config.sample_rate)) sample;
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Fabric.stop_flow t.fabric t.inbound;
    Fabric.stop_flow t.fabric t.outbound
  end

let latencies t = t.lat
let offered_rate t = t.config.request_rate

let achieved_rate t =
  let in_reqs = t.inbound.Flow.rate /. t.config.request_bytes in
  let out_reqs = t.outbound.Flow.rate /. t.config.response_bytes in
  Float.min in_reqs out_reqs
