(* Soak test: 200 simulated milliseconds of everything at once —
   monitoring, heartbeats, managed and unmanaged tenants, churn, and
   faults injected and repaired mid-flight. The assertions are global
   invariants, not scenario specifics: capacity conservation, telemetry
   liveness, fault detection and recovery, guarantee compliance, and a
   clean teardown. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module Mon = Ihnet_monitor
module R = Ihnet_manager
module Rec = Ihnet_record

let tc name f = Alcotest.test_case name `Quick f

(* On any failure inside [f], dump the flight-recorder buffer as a
   replayable repro trace before letting the exception escape. *)
let with_repro name f =
  let buf = Buffer.create 65536 in
  try f buf
  with e ->
    let path = Printf.sprintf "soak_repro_%s.jsonl" name in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Buffer.contents buf));
    Printf.eprintf "soak %s failed; repro trace written to %s\n%!" name path;
    raise e

let soak ?record_buf () =
  let host = Ihnet.Host.create ~seed:1234 Ihnet.Host.Two_socket in
  let fab = Ihnet.Host.fabric host in
  let recorder =
    Option.map
      (fun buf ->
        Rec.Recorder.attach ~digest_every:256 ~label:"soak" ~seed:1234
          ~sink:(Rec.Recorder.buffer_sink buf) fab)
      record_buf
  in
  let sim = Ihnet.Host.sim host in
  let topo = Ihnet.Host.topology host in
  let rng = U.Rng.create 77 in
  (* monitoring stack *)
  let sampler =
    Ihnet.Host.start_monitoring host
      ~wiring:
        {
          Ihnet.Host.default_wiring with
          Ihnet.Host.sampler =
            Some
              {
                (Mon.Sampler.default_config ()) with
                Mon.Sampler.period = U.Units.us 200.0;
                fidelity = Mon.Counter.Oracle;
              };
        }
      ()
  in
  let hb = Ihnet.Host.start_heartbeats host () in
  (* manager with one protected tenant *)
  let mgr = Ihnet.Host.enable_manager host () in
  (match
     Ihnet.Host.submit_intent host
       (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:(U.Units.gbps 4.0))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (R.Mgr_error.to_string e));
  (* steady workloads *)
  let kv = W.Kvstore.start fab (W.Kvstore.default_config ~tenant:1 ~nic:"nic0") in
  let ml =
    W.Mltrain.start fab
      {
        (W.Mltrain.default_config ~tenant:2 ~gpu:"gpu0" ~data_source:"dimm0.0.0") with
        W.Mltrain.compute_time = U.Units.ms 1.0;
      }
  in
  let st = W.Storage.start fab (W.Storage.default_config ~tenant:3 ~ssd:"ssd1" ~target:"dimm1.0.0") in
  let ar =
    W.Allreduce.start fab
      { W.Allreduce.tenant = 4; ring = [ "gpu0"; "gpu1" ]; data_bytes = U.Units.mib 32.0; iterations = 1000 }
  in
  (* a fault that appears at 60 ms and is repaired at 120 ms *)
  let bad_link = (T.Topology.link_named topo "rp1.0" "pciesw1").T.Link.id in
  E.Sim.schedule sim ~after:(U.Units.ms 60.0) (fun _ ->
      E.Fabric.inject_fault fab bad_link
        { E.Fault.capacity_factor = 0.5; extra_latency = U.Units.us 3.0; loss_prob = 0.0 });
  E.Sim.schedule sim ~after:(U.Units.ms 120.0) (fun _ -> E.Fabric.clear_fault fab bad_link);
  (* tenant churn: short bulk transfers appearing at random *)
  let churn_path = T.Routing.route topo "nic2" "dimm1.1.0" in
  let rec churn _ =
    if E.Sim.now sim < U.Units.ms 190.0 then begin
      ignore
        (E.Fabric.start_flow fab ~tenant:(5 + U.Rng.int rng 3) ~path:churn_path
           ~size:(E.Flow.Bytes (U.Rng.uniform rng 1e6 5e7)) ());
      E.Sim.schedule sim ~after:(U.Rng.exponential rng (U.Units.ms 3.0)) churn
    end
  in
  E.Sim.schedule sim ~after:0.0 churn;
  (* run, checking conservation every 10 ms and sampling heartbeat
     health so the fault era (60-120 ms) can be checked afterwards *)
  let conservation_ok = ref true in
  let sick_during_fault = ref false in
  for step = 1 to 20 do
    Ihnet.Host.run_for host (U.Units.ms 10.0);
    if step > 6 && step <= 12 && not (Mon.Heartbeat.healthy hb) then
      sick_during_fault := true;
    List.iter
      (fun (l : T.Link.t) ->
        List.iter
          (fun dir ->
            let rate = E.Fabric.link_rate fab l.T.Link.id dir in
            let cap = E.Fabric.effective_capacity fab l.T.Link.id dir in
            if rate > (cap *. 1.001) +. 1.0 then conservation_ok := false)
          [ T.Link.Fwd; T.Link.Rev ])
      (T.Topology.links topo)
  done;
  Option.iter Rec.Recorder.stop recorder;
  (host, fab, sampler, hb, mgr, kv, ml, st, ar, !conservation_ok, !sick_during_fault)

let soak_tests =
  [
    tc "200 ms of everything at once upholds the global invariants" (fun () ->
        with_repro "everything" @@ fun buf ->
        let host, fab, sampler, hb, mgr, kv, ml, st, ar, conservation_ok, sick_during_fault =
          soak ~record_buf:buf ()
        in
        (* capacity conservation held at every checkpoint *)
        Alcotest.(check bool) "conservation" true conservation_ok;
        (* all workloads made progress *)
        Alcotest.(check bool) "kv sampled" true (U.Sketch.count (W.Kvstore.latencies kv) > 1000);
        Alcotest.(check bool) "ml progressed" true (W.Mltrain.iterations_done ml >= 10);
        Alcotest.(check bool) "storage progressed" true (W.Storage.completed_ops st > 500);
        Alcotest.(check bool) "allreduce progressed" true (W.Allreduce.iterations_done ar >= 10);
        (* monitoring stayed alive and saw the fault *)
        Alcotest.(check bool) "sampler ticked" true (Mon.Sampler.ticks sampler > 900);
        Alcotest.(check bool) "fault era flagged by heartbeats" true sick_during_fault;
        Alcotest.(check bool) "recovered after repair" true (Mon.Heartbeat.healthy hb);
        (* the protected tenant's SLO held at the end *)
        let report = R.Slo.check mgr in
        Alcotest.(check bool) "tenant 1 compliant" true (R.Slo.tenant_compliant report ~tenant:1);
        (* teardown drains cleanly *)
        W.Kvstore.stop kv;
        W.Mltrain.stop ml;
        W.Storage.stop st;
        W.Allreduce.stop ar;
        Mon.Heartbeat.stop hb;
        Mon.Sampler.stop sampler;
        R.Manager.stop_shim mgr;
        Ihnet.Host.run_for host (U.Units.ms 20.0);
        let leftover =
          List.filter
            (fun (f : E.Flow.t) -> f.E.Flow.cls = E.Flow.Payload)
            (E.Fabric.active_flows fab)
        in
        Alcotest.(check int) "no leaked payload flows" 0 (List.length leftover));
  ]

(* High-churn soak: ~10k flow starts/stops against a dgx-like host,
   stressing the incremental (component-scoped) reallocation path: local
   GPU->NIC flows keep components disjoint, cross-switch flows weld them
   together, and LLC-targeted flows drag the DDIO coupling and the
   memory links into the mix. Completions drain through the completion
   heap while the sim advances. Invariants checked at every
   checkpoint: per-link conservation (Σ rates ≤ effective capacity) and
   the one protected flow's floor. *)

let high_churn ?record_buf () =
  let topo = T.Builder.dgx_like () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create ~seed:7 sim topo in
  let recorder =
    Option.map
      (fun buf ->
        Rec.Recorder.attach ~digest_every:1024 ~label:"soak-churn" ~seed:7
          ~sink:(Rec.Recorder.buffer_sink buf) fab)
      record_buf
  in
  let rng = U.Rng.create 9 in
  let local =
    Array.init 8 (fun i ->
        T.Routing.route topo (Printf.sprintf "gpu%d" i) (Printf.sprintf "nic%d" i))
  in
  let cross =
    Array.init 8 (fun i ->
        T.Routing.route topo (Printf.sprintf "gpu%d" i) (Printf.sprintf "nic%d" ((i + 5) mod 8)))
  in
  (* each GPU writes into its own socket's LLC *)
  let llc =
    Array.init 8 (fun i ->
        let gpu = T.Topology.device_named topo (Printf.sprintf "gpu%d" i) in
        let home = Option.get (T.Topology.home_socket topo gpu) in
        T.Routing.route topo gpu.T.Device.name home.T.Device.name)
  in
  let floor = U.Units.gbps 2.0 in
  let protected_flow =
    E.Fabric.start_flow fab ~tenant:1 ~floor ~path:local.(0) ~size:E.Flow.Unbounded ()
  in
  let completed = ref 0 in
  let live = Queue.create () in
  let violations = ref 0 in
  let check () =
    List.iter
      (fun (l : T.Link.t) ->
        List.iter
          (fun dir ->
            let rate = E.Fabric.link_rate fab l.T.Link.id dir in
            let cap = E.Fabric.effective_capacity fab l.T.Link.id dir in
            if rate > (cap *. 1.001) +. 1.0 then incr violations)
          [ T.Link.Fwd; T.Link.Rev ])
      (T.Topology.links topo);
    if protected_flow.E.Flow.rate < floor *. 0.999 then incr violations
  in
  let n_ops = 10_000 in
  for i = 1 to n_ops do
    let r = U.Rng.int rng 100 in
    let p =
      if r < 70 then local.(U.Rng.int rng 8)
      else if r < 90 then cross.(U.Rng.int rng 8)
      else llc.(U.Rng.int rng 8)
    in
    let size =
      if U.Rng.int rng 4 = 0 then E.Flow.Unbounded
      else E.Flow.Bytes (U.Rng.uniform rng 1e5 2e6)
    in
    let f =
      E.Fabric.start_flow fab
        ~tenant:(2 + (i mod 15))
        ~weight:(1.0 +. float_of_int (i mod 4))
        ~llc_target:(r >= 90)
        ~on_complete:(fun _ -> incr completed)
        ~path:p ~size ()
    in
    Queue.push f live;
    if Queue.length live > 192 then E.Fabric.stop_flow fab (Queue.pop live);
    if i mod 16 = 0 then E.Sim.run ~until:(E.Sim.now sim +. U.Units.us 50.0) sim;
    if i mod 500 = 0 then check ()
  done;
  Queue.iter (fun f -> E.Fabric.stop_flow fab f) live;
  E.Sim.run ~until:(E.Sim.now sim +. U.Units.ms 5.0) sim;
  check ();
  Option.iter Rec.Recorder.stop recorder;
  (fab, protected_flow, !violations, !completed)

let high_churn_tests =
  [
    tc "10k-flow churn on a dgx keeps conservation and floors" (fun () ->
        with_repro "churn" @@ fun buf ->
        let fab, protected_flow, violations, completed = high_churn ~record_buf:buf () in
        Alcotest.(check int) "no conservation or floor violations" 0 violations;
        Alcotest.(check bool) "completions drained through the heap" true (completed > 100);
        Alcotest.(check bool) "reallocations happened" true (E.Fabric.reallocations fab > 10_000);
        (* everything stopped or completed except the protected flow *)
        Alcotest.(check int) "only the protected flow is left" 1 (E.Fabric.flow_count fab);
        E.Fabric.stop_flow fab protected_flow;
        Alcotest.(check int) "teardown drains" 0 (E.Fabric.flow_count fab));
  ]

let suites = [ ("soak", soak_tests); ("soak.churn", high_churn_tests) ]
