module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module T = Ihnet_topology
module U = Ihnet_util

type config = {
  tenant : int;
  ssd : string;
  target : string;
  iops : float;
  read_fraction : float;
  block : Traffic.size_dist;
}

let default_config ~tenant ~ssd ~target =
  {
    tenant;
    ssd;
    target;
    iops = 20_000.0;
    read_fraction = 0.7;
    block = Traffic.Pareto { alpha = 1.5; x_min = U.Units.kib 16.0 };
  }

type t = {
  fabric : Fabric.t;
  config : config;
  read_path : T.Path.t;
  write_path : T.Path.t;
  llc_target : bool;
  lat : U.Sketch.t;
  rng : U.Rng.t;
  mutable ops : int;
  mutable moved : float;
  mutable live : Flow.t list;
  mutable stopped : bool;
}

let start fabric ?rng config =
  if not (config.iops > 0.0) then
    invalid_arg (Printf.sprintf "Storage.start: iops must be > 0 (got %g)" config.iops);
  if not (config.read_fraction >= 0.0 && config.read_fraction <= 1.0) then
    invalid_arg
      (Printf.sprintf "Storage.start: read_fraction must be in [0, 1] (got %g)"
         config.read_fraction);
  let rng = match rng with Some r -> r | None -> U.Rng.split (Fabric.rng fabric) in
  let topo = Fabric.topology fabric in
  let read_path = T.Routing.route topo config.ssd config.target in
  let write_path = T.Routing.route topo config.target config.ssd in
  let llc_target = T.Device.is_socket (T.Topology.device_named topo config.target) in
  let t =
    {
      fabric;
      config;
      read_path;
      write_path;
      llc_target;
      lat = U.Sketch.create ();
      rng;
      ops = 0;
      moved = 0.0;
      live = [];
      stopped = false;
    }
  in
  let sim = Fabric.sim fabric in
  let rec arrival _ =
    if not t.stopped then begin
      let bytes = Traffic.draw_size t.rng t.config.block in
      let is_read = U.Rng.float t.rng 1.0 < t.config.read_fraction in
      let p = if is_read then t.read_path else t.write_path in
      let flow =
        Fabric.start_flow t.fabric ~tenant:t.config.tenant
          ~llc_target:(is_read && t.llc_target) ~path:p ~size:(Flow.Bytes bytes)
          ~on_complete:(fun f ->
            t.ops <- t.ops + 1;
            t.moved <- t.moved +. bytes;
            t.live <- List.filter (fun (x : Flow.t) -> x.Flow.id <> f.Flow.id) t.live;
            U.Sketch.record t.lat (Flow.duration f))
          ()
      in
      t.live <- flow :: t.live;
      Sim.schedule sim ~after:(U.Rng.exponential t.rng (1e9 /. t.config.iops)) arrival
    end
  in
  Sim.schedule sim ~after:(U.Rng.exponential rng (1e9 /. config.iops)) arrival;
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    List.iter (Fabric.stop_flow t.fabric) t.live;
    t.live <- []
  end

let completed_ops t = t.ops
let op_latencies t = t.lat
let bytes_moved t = t.moved
