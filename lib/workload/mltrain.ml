module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module T = Ihnet_topology
module U = Ihnet_util

type config = {
  tenant : int;
  gpu : string;
  data_source : string;
  loader_streams : int;
  batch_bytes : float;
  compute_time : U.Units.ns;
  sync : (string * float) option;
  iterations : int option;
}

let default_config ~tenant ~gpu ~data_source =
  {
    tenant;
    gpu;
    data_source;
    loader_streams = 2;
    batch_bytes = U.Units.mib 256.0;
    compute_time = U.Units.ms 5.0;
    sync = None;
    iterations = None;
  }

type t = {
  fabric : Fabric.t;
  config : config;
  load_paths : T.Path.t list; (* one per loader stream *)
  sync_path : T.Path.t option;
  times : U.Sketch.t;
  mutable iters : int;
  mutable running : bool;
  mutable current : Flow.t list;
}

(* The DIMMs loader streams read from: data_source first, then the
   other DIMMs on the GPU's socket, cycled. *)
let loader_sources topo config (gpu : T.Device.t) =
  let primary = T.Topology.device_named topo config.data_source in
  let others =
    T.Topology.find_devices topo (fun d ->
        (match d.T.Device.kind with T.Device.Dimm _ -> true | _ -> false)
        && d.T.Device.socket = gpu.T.Device.socket
        && d.T.Device.id <> primary.T.Device.id)
  in
  let pool = primary :: others in
  List.init config.loader_streams (fun i -> List.nth pool (i mod List.length pool))

let start fabric config =
  if not (config.batch_bytes > 0.0) then
    invalid_arg
      (Printf.sprintf "Mltrain.start: batch_bytes must be > 0 (got %g)" config.batch_bytes);
  if not (config.compute_time >= 0.0) then
    invalid_arg
      (Printf.sprintf "Mltrain.start: compute_time must be >= 0 (got %g)" config.compute_time);
  if config.loader_streams < 1 then
    invalid_arg
      (Printf.sprintf "Mltrain.start: loader_streams must be >= 1 (got %d)"
         config.loader_streams);
  let topo = Fabric.topology fabric in
  let gpu = T.Topology.device_named topo config.gpu in
  let sources = loader_sources topo config gpu in
  let load_paths =
    List.map (fun (src : T.Device.t) -> T.Routing.route topo src.T.Device.name config.gpu) sources
  in
  let sync_path = Option.map (fun (nic, _) -> T.Routing.route topo config.gpu nic) config.sync in
  let t =
    {
      fabric;
      config;
      load_paths;
      sync_path;
      times = U.Sketch.create ();
      iters = 0;
      running = true;
      current = [];
    }
  in
  let sim = Fabric.sim fabric in
  let share = config.batch_bytes /. float_of_int config.loader_streams in
  let rec iteration started_at =
    if t.running then begin
      let outstanding = ref (List.length t.load_paths) in
      let flows =
        List.map
          (fun p ->
            Fabric.start_flow fabric ~tenant:config.tenant ~path:p ~size:(Flow.Bytes share)
              ~on_complete:(fun f ->
                t.current <- List.filter (fun (x : Flow.t) -> x.Flow.id <> f.Flow.id) t.current;
                decr outstanding;
                if !outstanding = 0 then
                  Sim.schedule sim ~after:config.compute_time (fun _ -> after_compute started_at))
              ())
          t.load_paths
      in
      t.current <- flows
    end
  and after_compute started_at =
    if t.running then
      match (t.sync_path, t.config.sync) with
      | Some sp, Some (_, sync_bytes) ->
        let flow =
          Fabric.start_flow t.fabric ~tenant:t.config.tenant ~path:sp
            ~size:(Flow.Bytes sync_bytes)
            ~on_complete:(fun f ->
              t.current <- List.filter (fun (x : Flow.t) -> x.Flow.id <> f.Flow.id) t.current;
              finish_iteration started_at)
            ()
        in
        t.current <- [ flow ]
      | _ -> finish_iteration started_at
  and finish_iteration started_at =
    let now = Fabric.now t.fabric in
    U.Sketch.record t.times (now -. started_at);
    t.iters <- t.iters + 1;
    let continue =
      match t.config.iterations with Some n -> t.iters < n | None -> true
    in
    if continue && t.running then iteration now else t.running <- false
  in
  iteration (Fabric.now fabric);
  t

let stop t =
  if t.running then begin
    t.running <- false;
    List.iter (Fabric.stop_flow t.fabric) t.current;
    t.current <- []
  end

let iterations_done t = t.iters
let iteration_times t = t.times
let running t = t.running
