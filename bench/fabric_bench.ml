(* Fabric/allocator scaling benchmark and its regression gate.

   Measures ops/s per subject on the allocation hot path and the layers
   around it (the §3.2-Q3 "enforcement overhead" cost model), and
   compares a run against a committed snapshot such as the repo's
   BENCH_fabric.json.

   Subjects:
   - allocate-{64,512,4096}: one Fairshare.allocate call over n demands
     with overlapping usages on a 96-resource pool (distinct weights and
     caps so the filling front hits many separate events).
   - flow-churn-{256,4096}: one start_flow + stop_flow pair against a
     dgx-like fabric carrying that many GPU->local-NIC flows. The eight
     gpu_i->nic_i paths are link-disjoint, so the churned flow's
     contention component holds ~n/8 flows — the case incremental,
     component-scoped reallocation is built for.
   - flow-churn-coupled-4096: same, but every background flow crosses
     switch/socket boundaries (gpu_i->nic_{i+3 mod 8}), welding the
     whole host into one contention component. Worst case: the
     component IS the full flow set, so only the per-path walk and the
     per-class solve show, not the scoping: every epoch walks, solves
     and folds all 4096 flows in their 24 demand classes.
   - flow-churn-miss-1k: 1000 flows on the coupled paths, and an op
     that stops a random flow and starts one on a random path: a full
     solve of a 1000-flow component at every epoch. Every flow has a
     weight of its own, a long-mantissa one, so every flow is its own
     demand class and the component fails the exactness certificate:
     the solver gets one demand per flow.
   - flow-churn-classes-1k: the same op over flows weighted 1 + i mod 3,
     as host-churn weights them: 1000 flows in 24 demand classes, so
     the solver gets one demand per class, as host-churn pays it.
   - flow-churn-bounded-1k: flow-churn-classes-1k plus 48 bounded flows
     too large to finish, in the same classes, so every epoch re-keys
     their 48 completion keys in place, as host-churn's epochs re-key
     its bounded flows'.
   - the *-idle subjects, scan-digest, fleet-churn-1k and
     daemon-cmds-4: see their sections below.

   Timing. A subject builds its state, then a calibration pass of at
   least [block_ms] of ops fixes how many ops one block holds, so that
   a block lasts about [block_ms]. It then times [blocks] blocks with
   perfbench's machine-speed probe (Perfbench.Harness.timed): each
   block's wall time is scaled by the probe samples taken just before
   and just after it, which takes the machine's own speed changes out
   of the figure. A subject's result is the median, the interquartile
   range and the per-block samples of its normalised ops/s, beside the
   median of the raw ones.

   Usage: fabric_bench [--smoke] [-o FILE] [--subject NAME]... [--compare BASELINE]
   --smoke runs each subject's op once (a liveness check) and measures
   nothing. -o writes the results to FILE as JSON; without it nothing
   is written. --subject restricts the run to the named subject(s)
   (repeatable). --compare prints every measured subject against
   BASELINE's median and exits 1 when any is more than [tolerance_pct]
   below it. *)

module U = Ihnet_util
module E = Ihnet_engine
module T = Ihnet_topology
module M = Ihnet_manager
module Mon = Ihnet_monitor
module Rec = Ihnet_record
module F = Ihnet_fleet
module Api = Ihnet_api
module H = Perfbench.Harness

let block_ms = 20
let blocks = 25
let tolerance_pct = 30.0

let usage () =
  prerr_endline
    "usage: fabric_bench [--smoke] [-o FILE] [--subject NAME]... [--compare BASELINE]";
  exit 2

let smoke, out_file, only, baseline_file =
  let smoke = ref false and out = ref None and only = ref [] and baseline = ref None in
  let rec parse i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "--smoke" ->
          smoke := true;
          parse (i + 1)
      | "-o" when i + 1 < Array.length Sys.argv ->
          out := Some Sys.argv.(i + 1);
          parse (i + 2)
      | "--subject" when i + 1 < Array.length Sys.argv ->
          only := Sys.argv.(i + 1) :: !only;
          parse (i + 2)
      | "--compare" when i + 1 < Array.length Sys.argv ->
          baseline := Some Sys.argv.(i + 1);
          parse (i + 2)
      | a ->
          Printf.eprintf "fabric_bench: unknown or incomplete argument %S\n" a;
          usage ()
  in
  parse 1;
  (* a smoke run measures nothing to write or compare *)
  if !smoke && (!out <> None || !baseline <> None) then usage ();
  (!smoke, !out, !only, !baseline)

type stats = {
  median : float;  (** normalised ops/s *)
  iqr : float;
  samples : float array;  (** one per block, in order *)
  raw_median : float;  (** wall-clock ops/s, not normalised *)
}

(* normalised ops/s of [f]: a calibration pass sizes the block, then
   each block is timed between two probe samples. [None] in smoke
   mode, where [f] runs once. *)
let time_ops f =
  if smoke then begin
    ignore (f ());
    None
  end
  else begin
    let run n =
      for _ = 1 to n do
        ignore (f ())
      done
    in
    let block_ns = block_ms * 1_000_000 in
    let t0 = Perfbench.Span.now () and n = ref 0 in
    while Perfbench.Span.now () - t0 < block_ns do
      run 1;
      incr n
    done;
    let ops = max 1 (!n * block_ns / (Perfbench.Span.now () - t0)) in
    let per_s ns = float_of_int ops *. 1e9 /. float_of_int (max 1 ns) in
    let norm = Array.make blocks 0.0 and raw = Array.make blocks 0.0 in
    for b = 0 to blocks - 1 do
      let raw_ns, norm_ns =
        H.timed (fun () ->
            let t0 = Perfbench.Span.now () in
            run ops;
            Perfbench.Span.now () - t0)
      in
      norm.(b) <- per_s norm_ns;
      raw.(b) <- per_s raw_ns
    done;
    let sorted a =
      let a = Array.copy a in
      Array.sort Float.compare a;
      a
    in
    let sn = sorted norm in
    Some
      {
        median = H.percentile sn 0.5;
        iqr = H.percentile sn 0.75 -. H.percentile sn 0.25;
        samples = norm;
        raw_median = H.percentile (sorted raw) 0.5;
      }
  end

(* {1 allocate-n: the bare allocator} *)

let make_demands n =
  let nr = 96 in
  Array.init n (fun i ->
      {
        E.Fairshare.weight = 1.0 +. (0.01 *. float_of_int (i mod 37));
        floor = 0.01;
        cap = (if i mod 4 = 0 then 5.0 +. (0.37 *. float_of_int (i mod 59)) else infinity);
        res = [| i mod nr; ((i * 7) + 1 mod nr) mod nr; ((i * 13) + 5) mod nr |];
        coeff = [| 1.0; 1.1; 1.0 |];
      })

let bench_allocate n =
  let capacities = Array.init 96 (fun r -> 80.0 +. float_of_int (r mod 7)) in
  let demands = make_demands n in
  time_ops (fun () -> Sys.opaque_identity (E.Fairshare.allocate ~capacities demands))

(* {1 flow-churn-n: start/stop against a loaded fabric} *)

(* the eight gpu_i -> nic_(nic_of i) paths of a dgx-like topology *)
let gpu_nic_paths topo ~nic_of =
  Array.init 8 (fun i ->
      T.Routing.route topo (Printf.sprintf "gpu%d" i) (Printf.sprintf "nic%d" (nic_of i)))

let bench_churn ?(wire = fun _ -> ()) ~nic_of n =
  let topo = T.Builder.dgx_like () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  wire fab;
  let paths = gpu_nic_paths topo ~nic_of in
  E.Fabric.batch fab (fun () ->
      for i = 0 to n - 1 do
        ignore
          (E.Fabric.start_flow fab ~tenant:(1 + (i mod 16))
             ~weight:(1.0 +. float_of_int (i mod 3))
             ~path:paths.(i mod Array.length paths)
             ~size:E.Flow.Unbounded ())
      done);
  let churn_path = paths.(0) in
  time_ops (fun () ->
      let f = E.Fabric.start_flow fab ~tenant:99 ~path:churn_path ~size:E.Flow.Unbounded () in
      E.Fabric.stop_flow fab f)

let bench_churn_local n = bench_churn ~nic_of:Fun.id n
let bench_churn_coupled n = bench_churn ~nic_of:(fun i -> (i + 3) mod 8) n

(* flow-churn-miss-1k, flow-churn-classes-1k and flow-churn-bounded-1k:
   an op stops a random flow and starts one on a random path; the flow
   just started is never the one stopped, so the op is the one the
   committed references measured. [weight k i] weighs the [k]th flow
   started, in slot [i]. The [bounded] flows beside them, started last
   and one path after another, draw nothing from the generator, and
   nothing stops them. *)
let bench_churn_random ?(bounded = 0) ~weight n =
  let topo = T.Builder.dgx_like () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  let paths = gpu_nic_paths topo ~nic_of:(fun i -> (i + 3) mod 8) in
  let rng = U.Rng.create 3 and started = ref 0 in
  let start i =
    incr started;
    E.Fabric.start_flow fab ~tenant:(1 + (i mod 16)) ~weight:(weight !started i)
      ~path:(U.Rng.pick rng paths) ~size:E.Flow.Unbounded ()
  in
  let live = ref [||] in
  E.Fabric.batch fab (fun () ->
      live := Array.init n start;
      for i = 0 to bounded - 1 do
        ignore
          (E.Fabric.start_flow fab ~tenant:(1 + (i mod 16)) ~weight:(weight 0 i)
             ~path:paths.(i mod Array.length paths) ~size:(E.Flow.Bytes 1e15) ())
      done);
  let live = !live and last = ref (-1) in
  time_ops (fun () ->
      let i = U.Rng.int rng n in
      let i = if i = !last then (i + 1) mod n else i in
      E.Fabric.stop_flow fab live.(i);
      live.(i) <- start i;
      last := i)

(* each started flow has a weight of its own, so every flow is its
   own demand *)
let bench_churn_miss n = bench_churn_random ~weight:(fun k _ -> 1.0 +. (1e-4 *. float_of_int k)) n

let classes_weight _ i = 1.0 +. float_of_int (i mod 3)
let bench_churn_classes n = bench_churn_random ~weight:classes_weight n

(* The simulated clock never moves, so no bounded flow finishes *)
let bench_churn_bounded n = bench_churn_random ~bounded:48 ~weight:classes_weight n

(* flow-churn-sketch-4096 is flow-churn-4096 with the always-on
   latency-sketch plane recording at every reallocation epoch — the
   "active" half of the sketch perf contract (stay within noise of the
   dormant run; the gate tolerance absorbs runner jitter). *)
let bench_churn_sketch n = bench_churn ~wire:E.Fabric.enable_latency_sketches ~nic_of:Fun.id n

(* {1 The *-idle subjects: the cost of a plane that watches a healthy host}

   Each runs a managed two-socket host with guaranteed pipes and live
   flows, instrumented with one plane, and times one simulated ms per
   op. That the plane leaves the run unchanged is a test, not a
   measurement: see test/test_idle.ml and, for fleet-idle, [fleet.idle]
   in test/test_fleet.ml. *)

let make_managed_host ?(wire = fun _ -> ()) () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  wire fab;
  let mgr = M.Manager.create fab () in
  List.iter
    (fun intent ->
      match M.Manager.submit mgr intent with
      | Ok ps ->
        List.iter
          (fun (p : M.Placement.t) ->
            let f =
              E.Fabric.start_flow fab ~tenant:p.M.Placement.tenant
                ~demand:p.M.Placement.rate ~path:p.M.Placement.path ~size:E.Flow.Unbounded ()
            in
            ignore (M.Manager.attach mgr f))
          ps
      | Error e -> failwith ("fabric_bench: admission refused: " ^ M.Mgr_error.to_string e))
    [
      M.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:8e9;
      M.Intent.pipe ~tenant:2 ~src:"gpu0" ~dst:"socket0" ~rate:4e9;
      M.Intent.pipe ~tenant:3 ~src:"ext" ~dst:"socket1" ~rate:6e9;
    ];
  M.Manager.start_shim mgr ~period:5e4;
  (sim, fab, mgr)

(* simulated ms per wall second, from 50 ms into the run *)
let time_sim_ms sim =
  E.Sim.run ~until:50e6 sim;
  let t = ref (E.Sim.now sim) in
  time_ops (fun () ->
      t := !t +. 1e6;
      E.Sim.run ~until:!t sim)

(* the remediation loop ticking with nothing to fix *)
let bench_remediation_idle () =
  let sim, _, mgr = make_managed_host () in
  M.Remediation.start (M.Remediation.create mgr);
  time_sim_ms sim

(* a flight recorder attached and stopped: its hooks stay installed *)
let bench_recorder_idle () =
  let sim, _, _ =
    make_managed_host
      ~wire:(fun fab -> Rec.Recorder.stop (Rec.Recorder.attach ~sink:(fun _ -> ()) fab))
      ()
  in
  time_sim_ms sim

(* the remediation loop behind an evidence gate, every sensor honest *)
let bench_evidence_idle () =
  let sim, fab, mgr = make_managed_host () in
  let rem = M.Remediation.create mgr in
  M.Remediation.set_gate rem (Mon.Evidence.gate (Mon.Evidence.create fab));
  M.Remediation.start rem;
  time_sim_ms sim

(* the latency-sketch plane recording at every epoch *)
let bench_sketch_idle () =
  let sim, _, _ = make_managed_host ~wire:E.Fabric.enable_latency_sketches () in
  time_sim_ms sim

(* the recorder streaming every line and a full scan-port capture at
   every reallocation epoch; only the latest line and snapshot are
   kept, so the run's memory does not grow with its length *)
let bench_scanport_idle () =
  let buf = Buffer.create 4096 and last = ref None in
  let sim, _, _ =
    make_managed_host
      ~wire:(fun fab ->
        let sink line =
          Buffer.clear buf;
          Rec.Recorder.buffer_sink buf line
        in
        ignore (Rec.Recorder.attach ~label:"bench" ~sink fab);
        E.Fabric.subscribe fab (function
          | E.Fabric.Reallocated _ -> last := Some (Rec.Scanport.capture fab)
          | _ -> ()))
      ()
  in
  time_sim_ms sim

(* {1 monitor-idle: what the always-on sampler costs}

   perfbench's host-churn set-up host with no flows: a DGX host with
   the manager's 50 µs shim and the default 100 µs counter sampler. It
   first runs 1024 periods, so the telemetry store is full and every
   further sample overwrites the oldest; one op is then one simulated
   ms (ten sampler ticks). *)

let bench_monitor_idle () =
  let host = Ihnet.Host.create ~seed:11 Ihnet.Host.Dgx in
  ignore (Ihnet.Host.enable_manager host ());
  let s = Ihnet.Host.start_monitoring host () in
  Ihnet.Host.run_for host (1024.0 *. (Mon.Sampler.default_config ()).Mon.Sampler.period);
  if Mon.Sampler.ticks s <> 1024 then failwith "fabric_bench: monitor-idle store not full";
  time_ops (fun () -> Ihnet.Host.run_for host 1e6)

(* {1 shim-idle: what an idle manager costs a host}

   A fleet host between rounds: a Minimal host with the manager's
   50 µs shim, one placed pipe and no flow, so no pass has anything to
   do. One op is one simulated ms. *)

let bench_shim_idle () =
  let host = Ihnet.Host.create ~seed:11 Ihnet.Host.Minimal in
  (match
     Ihnet.Host.submit_intent host
       (M.Intent.pipe ~tenant:1 ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps 2.0))
   with
  | Ok [ _ ] -> ()
  | _ -> failwith "fabric_bench: shim-idle pipe refused");
  Ihnet.Host.run_for host 1e7;
  time_ops (fun () -> Ihnet.Host.run_for host 1e6)

(* {1 scan-digest: what a Scan reply costs}

   A two-socket host carrying 64 flows, as in perfbench's ihnetd-rpc,
   answers [Scan {ms = 0}] through the command handlers: the
   digest-only read of its scan chain, with no path rendered and no
   register kept. *)

let bench_scan_digest () =
  let module C = Api.Command in
  let h = Api.Handlers.local (Api.Host_spec.make ~seed:11 ()) in
  let endpoints =
    [|
      ("nic0", "socket0"); ("nic1", "socket0"); ("gpu0", "socket0"); ("ssd0", "socket0");
      ("nic2", "socket1"); ("gpu1", "socket1"); ("ssd1", "socket1"); ("ext", "socket1");
    |]
  in
  for i = 0 to 63 do
    let src, dst = endpoints.(i mod Array.length endpoints) in
    match
      Api.Handlers.run h
        (C.Flow_start
           {
             tenant = 1 + (i mod 16);
             src;
             dst;
             gbps = Some (0.5 +. (0.5 *. float_of_int (i mod 8)));
           })
    with
    | Api.Response.Flow_ok _ -> ()
    | _ -> failwith "scan-digest: flow start refused"
  done;
  let scan = C.Scan { ms = 0.0; load = false; step = None; snapshot = false } in
  time_ops (fun () ->
      match Api.Handlers.run h scan with
      | Api.Response.Scan_report _ as r -> r
      | _ -> failwith "scan-digest: scan refused")

(* controller rounds per wall second over one enrolled host carrying a
   flow, with no tenant and no channel fault *)
let bench_fleet_idle () =
  let host = Ihnet.Host.create ~seed:11 Ihnet.Host.Minimal in
  let path = T.Routing.route (Ihnet.Host.topology host) "nic0" "socket0" in
  ignore (E.Fabric.start_flow (Ihnet.Host.fabric host) ~tenant:1 ~path ~size:E.Flow.Unbounded ());
  let cfg = { F.Controller.default_config with F.Controller.round_len = U.Units.us 100.0 } in
  let t = F.Controller.create ~config:cfg ~seed:7 () in
  F.Controller.add_host t ~label:"live0" host;
  F.Controller.run t ~rounds:50;
  time_ops (fun () -> F.Controller.run t ~rounds:10)

(* {1 fleet-churn-1k: the control loop at fleet scale}

   1000 minimal hosts, 1000 placed tenants. The measured op is one
   tenant replacement through the full control plane — revoke the
   oldest tenant, submit a fresh one, run one controller round (1000
   host advances + 1000 health reports + the control step that routes
   the cleanup and the new placement). *)

let bench_fleet_churn () =
  let n = 1000 in
  let cfg =
    { F.Controller.default_config with F.Controller.round_len = U.Units.us 100.0 }
  in
  let t = F.Controller.create ~config:cfg ~seed:5 () in
  for i = 0 to n - 1 do
    F.Controller.spawn t ~preset:Ihnet.Host.Minimal (Printf.sprintf "host%d" i)
  done;
  let submit i =
    F.Controller.submit t
      (M.Intent.pipe ~tenant:i ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps 2.0))
  in
  for i = 1 to n do
    submit i
  done;
  let placed () =
    List.for_all
      (fun id ->
        match F.Controller.tenant_view t id with Some (F.Controller.Placed _) -> true | _ -> false)
      (F.Controller.tenants t)
  in
  let guard = ref 0 in
  while (not (placed ())) && !guard < 50 do
    incr guard;
    F.Controller.round t
  done;
  if not (placed ()) then failwith "fleet-churn-1k: fleet failed to converge during setup";
  let next = ref (n + 1) in
  time_ops (fun () ->
      F.Controller.revoke t ~tenant:(!next - n);
      submit !next;
      incr next;
      F.Controller.round t)

(* {1 daemon-cmds-4: the wire command plane}

   One in-process ihnetd server with four connected clients; each op
   pushes a Flow_start from every client through the full wire path
   (encode, frame, select loop, batched ingestion, typed reply) and
   then the four matching Flow_stops. Measures command-plane overhead
   — framing, JSON codecs, the select loop and per-tick batching — on
   top of mutations whose raw fabric cost flow-churn already tracks. *)

let bench_daemon_cmds () =
  let module C = Api.Command in
  let module Resp = Api.Response in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ihnetd-bench-%d.sock" (Unix.getpid ()))
  in
  let srv = Api.Server.create (Api.Handlers.local (Api.Host_spec.make ~seed:11 ())) path in
  let pump () = ignore (Api.Server.step ~timeout:0.0 srv) in
  let conns =
    Array.init 4 (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd)
  in
  (* clients and server share this thread, so drive the select loop by
     hand until every client has a reply waiting *)
  let await_replies () =
    let fds = Array.to_list conns in
    let rec go n =
      if n > 10_000 then failwith "daemon-cmds-4: daemon never replied";
      let ready, _, _ = Unix.select fds [] [] 0.0 in
      if List.length ready < Array.length conns then begin
        pump ();
        go (n + 1)
      end
    in
    go 0
  in
  let exchange cmd_of check =
    Array.iteri (fun i fd -> Api.Wire.write_frame fd (C.to_json (cmd_of i))) conns;
    await_replies ();
    Array.map
      (fun fd ->
        match Api.Wire.read_frame fd with
        | None -> failwith "daemon-cmds-4: connection closed"
        | Some j -> (
          match Resp.of_json j with
          | Ok r -> check r
          | Error e -> failwith ("daemon-cmds-4: bad reply: " ^ e)))
      conns
  in
  ignore
    (exchange
       (fun _ -> C.Hello { version = C.version })
       (function Resp.Hello_ok _ -> 0 | _ -> failwith "daemon-cmds-4: bad hello"));
  let tenant = ref 0 in
  let ops =
    time_ops (fun () ->
        let flows =
          exchange
            (fun i ->
              incr tenant;
              C.Flow_start
                {
                  tenant = !tenant;
                  src = "ext";
                  dst = (if i mod 2 = 0 then "socket0" else "socket1");
                  gbps = Some 1.0;
                })
            (function
              | Resp.Flow_ok { flow } -> flow | _ -> failwith "daemon-cmds-4: flow refused")
        in
        ignore
          (exchange
             (fun i -> C.Flow_stop { flow = flows.(i) })
             (function Resp.Err _ -> failwith "daemon-cmds-4: stop refused" | _ -> 0)))
  in
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  Api.Server.stop srv;
  ops

(* median normalised ops/s per subject of a snapshot written by -o *)
let load_baseline path =
  try
    match
      Rec.Trace.field
        (Rec.Trace.json_of_string (In_channel.with_open_text path In_channel.input_all))
        "subjects"
    with
    | Rec.Trace.Obj kvs ->
      List.map (fun (k, v) -> (k, Rec.Trace.(as_float (field v "median")))) kvs
    | _ -> raise (Rec.Trace.Parse_error "\"subjects\" is not an object")
  with Sys_error e | Rec.Trace.Parse_error e ->
    Printf.eprintf "fabric_bench: %s: %s\n" path e;
    exit 2

let write_snapshot file results =
  let floats a = String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.2f") a)) in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc
        "{\n  \"benchmark\": \"fabric\",\n  \"unit\": \"ops/s normalised by perfbench's probe\",\n\
        \  \"block_ms\": %d,\n  \"blocks\": %d,\n  \"subjects\": {\n"
        block_ms blocks;
      List.iteri
        (fun i (name, st) ->
          Printf.fprintf oc
            "    \"%s\": { \"median\": %.2f, \"iqr\": %.2f, \"raw_median\": %.2f, \"samples\": [%s] }%s\n"
            name st.median st.iqr st.raw_median (floats st.samples)
            (if i = List.length results - 1 then "" else ","))
        results;
      output_string oc "  }\n}\n");
  Printf.printf "wrote %s\n%!" file

(* exit 1 when a subject is more than [tolerance_pct] below the baseline *)
let compare_against path base results =
  Printf.printf "%-28s %12s %12s %9s\n" "subject" "baseline" "current" "delta";
  let regressed =
    List.filter
      (fun (name, st) ->
        let b = List.assoc name base in
        let delta = 100.0 *. ((st.median /. b) -. 1.0) in
        let bad = delta < -.tolerance_pct in
        Printf.printf "%-28s %12.1f %12.1f %+8.1f%%%s\n" name b st.median delta
          (if bad then " REGRESSION" else "");
        bad)
      results
  in
  if regressed <> [] then begin
    Printf.eprintf "fabric_bench: %d subject(s) regressed more than %.0f%% below %s\n"
      (List.length regressed) tolerance_pct path;
    exit 1
  end

let () =
  let subjects =
    [
      ("allocate-64", fun () -> bench_allocate 64);
      ("allocate-512", fun () -> bench_allocate 512);
      ("allocate-4096", fun () -> bench_allocate 4096);
      ("flow-churn-256", fun () -> bench_churn_local 256);
      ("flow-churn-4096", fun () -> bench_churn_local 4096);
      ("flow-churn-coupled-4096", fun () -> bench_churn_coupled 4096);
      ("flow-churn-miss-1k", fun () -> bench_churn_miss 1000);
      ("flow-churn-classes-1k", fun () -> bench_churn_classes 1000);
      ("flow-churn-bounded-1k", fun () -> bench_churn_bounded 1000);
      ("remediation-idle", bench_remediation_idle);
      ("recorder-idle", bench_recorder_idle);
      ("evidence-idle", bench_evidence_idle);
      ("sketch-idle", bench_sketch_idle);
      ("flow-churn-sketch-4096", fun () -> bench_churn_sketch 4096);
      ("scanport-idle", bench_scanport_idle);
      ("monitor-idle", bench_monitor_idle);
      ("shim-idle", bench_shim_idle);
      ("scan-digest", bench_scan_digest);
      ("fleet-idle", bench_fleet_idle);
      ("fleet-churn-1k", bench_fleet_churn);
      ("daemon-cmds-4", bench_daemon_cmds);
    ]
  in
  let subjects =
    match only with
    | [] -> subjects
    | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n subjects) then begin
              Printf.eprintf "fabric_bench: unknown subject %S\n" n;
              usage ()
            end)
          names;
        List.filter (fun (n, _) -> List.mem n names) subjects
  in
  (* read the baseline first, so a bad one costs no measuring *)
  let baseline =
    Option.map
      (fun path ->
        let base = load_baseline path in
        List.iter
          (fun (n, _) ->
            if not (List.mem_assoc n base) then begin
              Printf.eprintf "fabric_bench: %s has no subject %S\n" path n;
              exit 2
            end)
          subjects;
        (path, base))
      baseline_file
  in
  if not smoke then
    Printf.printf "%-24s %12s %9s %7s %12s\n" "subject" "median ops/s" "IQR" "IQR %" "raw median";
  let results =
    List.filter_map
      (fun (name, f) ->
        (* decouple subjects: start each from a compacted heap so a
           fast, allocation-heavy subject can't skew the next one's
           numbers through inherited GC state *)
        Gc.compact ();
        match f () with
        | None ->
          Printf.printf "%-24s ok\n%!" name;
          None
        | Some st ->
          Printf.printf "%-24s %12.1f %9.1f %6.1f%% %12.1f\n%!" name st.median st.iqr
            (100.0 *. st.iqr /. st.median) st.raw_median;
          Some (name, st))
      subjects
  in
  Option.iter (fun file -> write_snapshot file results) out_file;
  Option.iter (fun (path, base) -> compare_against path base results) baseline
