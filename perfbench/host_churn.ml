(* host-churn: a flow start/stop on a loaded fabric.

   A DGX host with the manager's 50 µs enforcement shim and the 100 µs
   counter sampler running holds 1000 long-lived flows on the
   eight gpuN -> nic((N+3) mod 8) paths. Those paths cross switches and
   sockets, so the flows form one large contention component. Light
   background traffic adds Poisson finite DDIO transfers into each
   socket and on/off memory bursts. One op stops a random live flow,
   starts one on a random path and advances one sampler period.

   Fair-share solving does most of the work. This is the only workload
   that schedules completions and runs the DDIO spill, and the one where
   [Host.run_for] costs per flow rather than per tick. *)

module U = Ihnet_util
module T = Ihnet_topology
module E = Ihnet_engine
module W = Ihnet_workload
module H = Ihnet.Host

type state = {
  host : H.t;
  fab : E.Fabric.t;
  mgr : Ihnet_manager.Manager.t;
  paths : T.Path.t array;
  live : E.Flow.t array;
  rng : U.Rng.t;
  completions : int ref;
  spans : Span.t;
  stop_span : int;
  start_span : int;
  run_span : int;
}

let period = U.Units.us 100.0
let population = 1000

(* the sampler's telemetry store keeps 1024 samples per series
   ([Telemetry.create]'s default); set-up advances the idle host that
   many periods, so the store is full and the heap stationary before
   the first op *)
let telemetry_fill = 1024

let route topo src dst =
  let dev name =
    match T.Topology.device_by_name topo name with
    | Some d -> d.T.Device.id
    | None -> failwith ("host-churn: no device " ^ name)
  in
  match T.Routing.shortest_path topo (dev src) (dev dst) with
  | Some p -> p
  | None -> failwith (Printf.sprintf "host-churn: no path %s -> %s" src dst)

let start st i =
  E.Fabric.start_flow st.fab ~tenant:(1 + (i mod 16))
    ~weight:(1.0 +. float_of_int (i mod 3))
    ~path:(U.Rng.pick st.rng st.paths) ~size:E.Flow.Unbounded ()

let setup ~seed ~traced spans =
  let host = H.create ~seed H.Dgx in
  let mgr = H.enable_manager host () in
  ignore (H.start_monitoring host ());
  H.run_for host (float_of_int telemetry_fill *. period);
  let fab = H.fabric host and topo = H.topology host in
  let paths =
    Array.init 8 (fun n ->
        route topo (Printf.sprintf "gpu%d" n) (Printf.sprintf "nic%d" ((n + 3) mod 8)))
  in
  let completions = ref 0 in
  if traced then
    E.Fabric.subscribe fab (function E.Fabric.Flow_completed _ -> incr completions | _ -> ());
  let st =
    {
      host;
      fab;
      mgr;
      paths;
      live = [||];
      rng = U.Rng.stream seed 0;
      completions;
      spans;
      stop_span = Span.register spans "fabric.stop_flow";
      start_span = Span.register spans "fabric.start_flow";
      run_span = Span.register spans "host.run_for";
    }
  in
  let live = ref [||] in
  E.Fabric.batch fab (fun () -> live := Array.init population (start st));
  List.iter
    (fun socket ->
      let nic = Printf.sprintf "nic%d" (4 * socket) and sock = Printf.sprintf "socket%d" socket in
      ignore
        (W.Traffic.poisson_transfers fab ~rng:(U.Rng.stream seed (1 + socket))
           ~tenant:(100 + socket) ~llc_target:true ~rate_per_s:10_000.0
           ~size:(W.Traffic.Uniform (32_768.0, 262_144.0))
           ~path:(route topo nic sock) ());
      ignore
        (W.Traffic.on_off_stream fab ~tenant:(110 + socket) ~rate:(U.Units.gbps 40.0)
           ~period:(U.Units.us 400.0) ~duty:0.25
           ~path:(route topo sock (Printf.sprintf "dimm%d.0.0" socket))
           ()))
    [ 0; 1 ];
  { st with live = !live }

let op st _ =
  let i = U.Rng.int st.rng (Array.length st.live) in
  Span.enter st.spans st.stop_span;
  E.Fabric.stop_flow st.fab st.live.(i);
  Span.leave st.spans;
  Span.enter st.spans st.start_span;
  st.live.(i) <- start st i;
  Span.leave st.spans;
  Span.enter st.spans st.run_span;
  H.run_for st.host period;
  Span.leave st.spans;
  true

let gate ~check:_ st =
  let stalled =
    Array.to_list st.live
    |> List.filter (fun (f : E.Flow.t) -> f.E.Flow.state <> E.Flow.Running)
    |> List.map (fun (f : E.Flow.t) -> Printf.sprintf "long-lived flow %d is not running" f.E.Flow.id)
  in
  ( stalled @ Ihnet_record.Replay.check_invariants ~manager:st.mgr st.fab,
    List.length stalled )

let digest st =
  let snap = H.scan st.host in
  Printf.sprintf "scan=%016Lx epoch=%d" snap.Ihnet_record.Scanport.s_digest
    snap.Ihnet_record.Scanport.s_epoch

(* the engine's public counters, shared with ihnetd-rpc *)
let counters_of fab =
  let s = E.Fabric.scan_solver_stats fab in
  let f = float_of_int in
  [
    ("reallocs", f (E.Fabric.reallocations fab));
    ("hits", f (E.Fabric.warm_hits fab));
    ("misses", f (E.Fabric.warm_misses fab));
    ("full", f s.E.Fairshare.full_rebuilds);
    ("incremental", f s.E.Fairshare.incremental);
    ("unchanged", f s.E.Fairshare.unchanged);
  ]

let counters st = counters_of st.fab @ [ ("completions", float_of_int !(st.completions)) ]

let fabric_layer ~ops ~delta =
  let hits = delta "hits" and misses = delta "misses" in
  [
    ("fabric.reallocs_per_op", delta "reallocs" /. ops);
    ("fabric.memo_hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    ("fairshare.full_rebuilds_per_op", delta "full" /. ops);
    ("fairshare.incremental_per_op", delta "incremental" /. ops);
    ("fairshare.unchanged_per_op", delta "unchanged" /. ops);
  ]

let layer ~ops ~delta =
  fabric_layer ~ops ~delta @ [ ("fabric.completions_per_op", delta "completions" /. ops) ]

(* an op takes about 17 ms and a set-up 0.3 s *)
let workload =
  {
    Harness.rate = 56.0;
    warmup = 50;
    setups = 5;
    probe_every = 1;
    setup;
    teardown = ignore;
    op;
    gate;
    digest;
    counters;
    layer;
  }
