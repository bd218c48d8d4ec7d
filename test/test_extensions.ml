(* Tests for the extension features: multimodal detection, CXL
   substrate, fabric event subscription. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module Mon = Ihnet_monitor

let tc name f = Alcotest.test_case name `Quick f

let make_host ?config ?(builder = T.Builder.two_socket_server) () =
  let topo = builder ?config () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  (topo, sim, fab)

(* {1 Multimodal detector} *)

let feed_gaussian rng mm ~n ~mus ~sigma =
  let verdicts = ref [] in
  for i = 1 to n do
    let x = Array.map (fun mu -> mu +. U.Rng.gaussian rng 0.0 sigma) mus in
    verdicts := Mon.Multimodal.observe mm ~at:(float_of_int i) x :: !verdicts
  done;
  List.rev !verdicts

let multimodal_tests =
  [
    tc "learns then scores near zero in control" (fun () ->
        let mm = Mon.Multimodal.create ~warmup:50 ~series:[ "a"; "b"; "c" ] () in
        let rng = U.Rng.create 3 in
        let verdicts =
          feed_gaussian rng mm ~n:200 ~mus:[| 1.0; 5.0; 10.0 |] ~sigma:0.1
        in
        let alarms = List.filter (function Mon.Multimodal.Alarm _ -> true | _ -> false) verdicts in
        Alcotest.(check int) "quiet" 0 (List.length alarms);
        let scores =
          List.filter_map (function Mon.Multimodal.Score d -> Some d | _ -> None) verdicts
        in
        let mean = U.Stats.mean (Array.of_list scores) in
        Alcotest.(check bool) "score near zero" true (Float.abs mean < 1.0));
    tc "alarms on a joint 1-sigma shift across many dims" (fun () ->
        let series = List.init 12 (fun i -> Printf.sprintf "s%d" i) in
        let mm = Mon.Multimodal.create ~warmup:50 ~series () in
        let rng = U.Rng.create 7 in
        let mus = Array.make 12 1.0 in
        ignore (feed_gaussian rng mm ~n:100 ~mus ~sigma:0.1);
        Alcotest.(check bool) "quiet before" true (Mon.Multimodal.alarms mm = []);
        (* each dim shifts by only ~1.2 sigma *)
        let shifted = Array.map (fun m -> m +. 0.12) mus in
        ignore (feed_gaussian rng mm ~n:30 ~mus:shifted ~sigma:0.1);
        Alcotest.(check bool) "alarm fired" true (Mon.Multimodal.alarms mm <> []));
    tc "alarm drivers name the shifted dimension" (fun () ->
        let mm = Mon.Multimodal.create ~warmup:50 ~series:[ "quiet"; "culprit" ] () in
        let rng = U.Rng.create 11 in
        ignore (feed_gaussian rng mm ~n:80 ~mus:[| 1.0; 1.0 |] ~sigma:0.05);
        ignore (feed_gaussian rng mm ~n:30 ~mus:[| 1.0; 2.0 |] ~sigma:0.05);
        match Mon.Multimodal.alarms mm with
        | a :: _ -> (
          match a.Mon.Multimodal.drivers with
          | (name, z) :: _ ->
            Alcotest.(check string) "culprit named" "culprit" name;
            Alcotest.(check bool) "large z" true (z > 3.0)
          | [] -> Alcotest.fail "no drivers")
        | [] -> Alcotest.fail "no alarm");
    tc "arity mismatch rejected" (fun () ->
        let mm = Mon.Multimodal.create ~series:[ "a"; "b" ] () in
        Alcotest.check_raises "arity" (Invalid_argument "Multimodal.observe: arity mismatch")
          (fun () -> ignore (Mon.Multimodal.observe mm ~at:0.0 [| 1.0 |])));
    tc "feed assembles vectors from telemetry and deduplicates ticks" (fun () ->
        let mm = Mon.Multimodal.create ~warmup:2 ~series:[ "x"; "y" ] () in
        let tm = Mon.Telemetry.create () in
        Alcotest.(check bool) "no data yet" true (Mon.Multimodal.feed mm tm = None);
        Mon.Telemetry.record tm ~series:"x" ~at:1.0 1.0;
        Mon.Telemetry.record tm ~series:"y" ~at:1.0 2.0;
        Alcotest.(check bool) "first feed" true (Mon.Multimodal.feed mm tm <> None);
        (* same tick again: deduplicated *)
        Alcotest.(check bool) "dedup" true (Mon.Multimodal.feed mm tm = None);
        Mon.Telemetry.record tm ~series:"x" ~at:2.0 1.0;
        Mon.Telemetry.record tm ~series:"y" ~at:2.0 2.0;
        Alcotest.(check bool) "next tick" true (Mon.Multimodal.feed mm tm <> None));
    tc "empty series list rejected" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Multimodal.create: empty series list")
          (fun () -> ignore (Mon.Multimodal.create ~series:[] ())));
    tc "a warmup <= 1 is refused, naming it" (fun () ->
        List.iter
          (fun warmup ->
            let msg = Printf.sprintf "Multimodal.create: warmup must be > 1 (got %d)" warmup in
            Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
                ignore (Mon.Multimodal.create ~warmup ~series:[ "a" ] ())))
          [ 1; 0; -5 ]);
  ]

(* {1 CXL substrate} *)

let cxl_tests =
  [
    tc "two_socket_with_cxl validates and has the expander" (fun () ->
        let topo = T.Builder.two_socket_with_cxl () in
        Alcotest.(check bool) "valid" true (Result.is_ok (T.Topology.validate topo));
        let d = T.Topology.device_named topo "cxl0" in
        Alcotest.(check bool) "kind" true (d.T.Device.kind = T.Device.Cxl_device));
    tc "device-to-host-DRAM is ~150ns as the paper quotes" (fun () ->
        let topo = T.Builder.two_socket_with_cxl () in
        let sim = E.Sim.create () in
        let fab = E.Fabric.create sim topo in
        let p = T.Routing.route topo "cxl0" "dimm0.0.0" in
        let lat = E.Fabric.path_latency fab p in
        Alcotest.(check bool) "in 130..170ns" true (lat >= 130.0 && lat <= 170.0));
    tc "cxl link is not a Figure-1 class and not pcie-positioned" (fun () ->
        let topo = T.Builder.two_socket_with_cxl () in
        let cxl_link =
          List.find
            (fun (l : T.Link.t) -> match l.T.Link.kind with T.Link.Cxl _ -> true | _ -> false)
            (T.Topology.links topo)
        in
        Alcotest.(check (option int)) "no class" None (T.Topology.figure1_class topo cxl_link);
        Alcotest.(check bool) "not pcie" true
          (T.Topology.pcie_position topo cxl_link = `Not_pcie));
    tc "flows run over cxl with near-wire efficiency" (fun () ->
        let topo = T.Builder.two_socket_with_cxl () in
        let sim = E.Sim.create () in
        let fab = E.Fabric.create sim topo in
        let p = T.Routing.route topo "cxl0" "dimm0.0.0" in
        let f = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        (* bottleneck = the 25.6 GB/s DDR channel, not the 32 GB/s CXL phy *)
        Alcotest.(check bool) "channel-bound" true (f.E.Flow.rate > 24e9);
        E.Fabric.stop_flow fab f);
    tc "add_cxl_expander requires a root complex" (fun () ->
        let topo = T.Topology.create ~name:"bare" () in
        ignore (T.Topology.add_device topo ~name:"socket9" ~kind:(T.Device.Cpu_socket { cores = 1 }) ~socket:9);
        Alcotest.check_raises "no rc"
          (Invalid_argument "Builder.add_cxl_expander: socket has no root complex") (fun () ->
            ignore (T.Builder.add_cxl_expander topo ~name:"cxl9" ~socket:9)));
  ]

(* {1 Fabric events} *)

let event_tests =
  [
    tc "start/complete/stop events fire in order" (fun () ->
        let topo, sim, fab = make_host () in
        let log = ref [] in
        E.Fabric.subscribe fab (fun ev ->
            match ev with
            | E.Fabric.Flow_started _ -> log := "start" :: !log
            | E.Fabric.Flow_completed _ -> log := "complete" :: !log
            | E.Fabric.Flow_stopped _ -> log := "stop" :: !log
            | E.Fabric.Fault_injected _ -> log := "fault" :: !log
            | E.Fabric.Fault_cleared _ -> log := "clear" :: !log
            | E.Fabric.Limits_changed _ | E.Fabric.Config_changed _ | E.Fabric.Reallocated _
            | E.Fabric.All_faults_cleared | E.Fabric.Batch_started | E.Fabric.Batch_ended
            | E.Fabric.Synced | E.Fabric.Sensor_fault_injected _
            | E.Fabric.Sensor_fault_cleared _ -> ());
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        ignore (E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:(E.Flow.Bytes 1e6) ());
        let f2 = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        E.Fabric.stop_flow fab f2;
        E.Fabric.inject_fault fab 0 E.Fault.down;
        E.Fabric.clear_fault fab 0;
        Alcotest.(check (list string)) "sequence"
          [ "start"; "start"; "complete"; "stop"; "fault"; "clear" ]
          (List.rev !log));
  ]

(* {1 Device failure} *)

let device_failure_tests =
  [
    tc "fail_device starves its flows; revive restores them" (fun () ->
        let topo, _, fab = make_host () in
        let p = T.Routing.route topo "gpu0" "dimm0.0.0" in
        let f = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        let healthy = f.E.Flow.rate in
        E.Fabric.fail_device fab (T.Topology.device_named topo "pciesw0").T.Device.id;
        Alcotest.(check (float 0.0)) "starved" 0.0 f.E.Flow.rate;
        E.Fabric.revive_device fab (T.Topology.device_named topo "pciesw0").T.Device.id;
        Alcotest.(check (float 1e6)) "restored" healthy f.E.Flow.rate);
    tc "heartbeats lose every probe through a dead device" (fun () ->
        let topo, sim, fab = make_host () in
        let hb = Mon.Heartbeat.start fab () in
        E.Sim.run ~until:(U.Units.ms 8.0) sim;
        E.Fabric.fail_device fab (T.Topology.device_named topo "pciesw0").T.Device.id;
        E.Sim.run ~until:(U.Units.ms 12.0) sim;
        let lost =
          List.length
            (List.filter
               (fun (r : Mon.Heartbeat.probe_result) -> r.Mon.Heartbeat.outcome = `Lost)
               (Mon.Heartbeat.results hb))
        in
        (* every pair whose path crosses the switch: at least nic0/gpu0/ssd0 related *)
        Alcotest.(check bool) "many lost" true (lost >= 10);
        (* localization points at the switch's links — up to the serial
           ambiguity with the rc-rp segment above it, so check the
           top-score group *)
        (match Mon.Heartbeat.localize hb with
        | (top :: _) as suspects ->
          let sw = (T.Topology.device_named topo "pciesw0").T.Device.id in
          let top_group =
            List.filter
              (fun s -> s.Mon.Heartbeat.score >= top.Mon.Heartbeat.score -. 1e-9)
              suspects
          in
          Alcotest.(check bool) "top group touches the switch" true
            (List.exists
               (fun s ->
                 let l = T.Topology.link topo s.Mon.Heartbeat.link in
                 l.T.Link.a = sw || l.T.Link.b = sw)
               top_group)
        | [] -> Alcotest.fail "no suspects");
        Mon.Heartbeat.stop hb);
  ]

(* {1 Determinism} *)

let determinism_tests =
  let run_scenario seed =
    let topo = T.Builder.two_socket_server () in
    let sim = E.Sim.create () in
    let fab = E.Fabric.create ~seed sim topo in
    let kv = W.Kvstore.start fab (W.Kvstore.default_config ~tenant:1 ~nic:"nic0") in
    let st = W.Storage.start fab (W.Storage.default_config ~tenant:2 ~ssd:"ssd0" ~target:"dimm0.0.0") in
    E.Sim.run ~until:(U.Units.ms 10.0) sim;
    let result =
      ( U.Sketch.count (W.Kvstore.latencies kv),
        U.Sketch.percentile (W.Kvstore.latencies kv) 0.5,
        W.Storage.completed_ops st,
        W.Storage.bytes_moved st )
    in
    W.Kvstore.stop kv;
    W.Storage.stop st;
    result
  in
  [
    tc "identical seeds give identical runs" (fun () ->
        let a = run_scenario 11 and b = run_scenario 11 in
        Alcotest.(check bool) "equal" true (a = b));
    tc "different seeds differ" (fun () ->
        let a = run_scenario 11 and b = run_scenario 12 in
        Alcotest.(check bool) "not equal" true (a <> b));
  ]

(* {1 SLO compliance} *)

module R = Ihnet_manager

let slo_tests =
  [
    tc "no placements: empty report" (fun () ->
        let _, _, fab = make_host () in
        let mgr = R.Manager.create fab () in
        let report = R.Slo.check mgr in
        Alcotest.(check int) "no entries" 0 (List.length report.R.Slo.entries);
        Alcotest.(check int) "no violations" 0 report.R.Slo.violations);
    tc "unattached placement is inactive" (fun () ->
        let _, _, fab = make_host () in
        let mgr = R.Manager.create fab () in
        (match R.Manager.submit mgr (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:1e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Ihnet_manager.Mgr_error.to_string e));
        let report = R.Slo.check mgr in
        (match report.R.Slo.entries with
        | [ e ] -> Alcotest.(check bool) "inactive" true (e.R.Slo.state = R.Slo.Inactive)
        | _ -> Alcotest.fail "expected one entry"));
    tc "guaranteed flow under attack is Met" (fun () ->
        let topo, sim, fab = make_host () in
        let mgr = R.Manager.create fab () in
        (match R.Manager.submit mgr (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:5e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Ihnet_manager.Mgr_error.to_string e));
        let p =
          T.Path.concat
            (T.Routing.route topo "ext" "nic0")
            (T.Routing.route topo "nic0" "socket0")
        in
        let f = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        ignore (R.Manager.attach mgr f);
        let agg = W.Rdma.start_loopback fab ~tenant:2 ~nic:"nic0" () in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let report = R.Slo.check mgr in
        Alcotest.(check bool) "tenant compliant" true (R.Slo.tenant_compliant report ~tenant:1);
        Alcotest.(check int) "no violations" 0 report.R.Slo.violations;
        W.Rdma.stop_loopback agg);
    tc "violation reported when the floor is not honored" (fun () ->
        let topo, sim, fab = make_host () in
        let mgr = R.Manager.create fab () in
        (match R.Manager.submit mgr (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:5e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Ihnet_manager.Mgr_error.to_string e));
        let p =
          T.Path.concat
            (T.Routing.route topo "ext" "nic0")
            (T.Routing.route topo "nic0" "socket0")
        in
        let f = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        ignore (R.Manager.attach mgr f);
        (* a fault halves the slot: the guarantee physically cannot hold *)
        let hop = List.nth p.T.Path.hops 1 in
        E.Fabric.inject_fault fab hop.T.Path.link.T.Link.id
          (E.Fault.degrade ~capacity_factor:0.1 ());
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let report = R.Slo.check mgr in
        Alcotest.(check bool) "violated" true (report.R.Slo.violations > 0);
        Alcotest.(check bool) "tenant flagged" false (R.Slo.tenant_compliant report ~tenant:1));
    tc "demand below the guarantee is still compliant" (fun () ->
        let topo, sim, fab = make_host () in
        let mgr = R.Manager.create fab () in
        (match R.Manager.submit mgr (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:5e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Ihnet_manager.Mgr_error.to_string e));
        let p =
          T.Path.concat
            (T.Routing.route topo "ext" "nic0")
            (T.Routing.route topo "nic0" "socket0")
        in
        (* the tenant only offers 100 MB/s of its 5 GB/s guarantee *)
        let f = E.Fabric.start_flow fab ~tenant:1 ~demand:1e8 ~path:p ~size:E.Flow.Unbounded () in
        ignore (R.Manager.attach mgr f);
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let report = R.Slo.check mgr in
        Alcotest.(check int) "no violations" 0 report.R.Slo.violations);
    tc "latency bound violations are caught" (fun () ->
        let topo, sim, fab = make_host () in
        let mgr = R.Manager.create fab () in
        let intent =
          {
            (R.Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:1e9) with
            R.Intent.latency_bound = Some (U.Units.us 1.0);
          }
        in
        (match R.Manager.submit mgr intent with Ok _ -> () | Error e -> Alcotest.fail (Ihnet_manager.Mgr_error.to_string e));
        let p = T.Routing.route topo "nic1" "socket0" in
        let f = E.Fabric.start_flow fab ~tenant:1 ~demand:1e8 ~path:p ~size:E.Flow.Unbounded () in
        ignore (R.Manager.attach mgr f);
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        Alcotest.(check int) "met within bound" 0 (R.Slo.check mgr).R.Slo.violations;
        (* silent extra latency breaks the bound without touching rates *)
        let hop = List.hd p.T.Path.hops in
        E.Fabric.inject_fault fab hop.T.Path.link.T.Link.id
          { E.Fault.capacity_factor = 1.0; extra_latency = U.Units.us 5.0; loss_prob = 0.0 };
        E.Sim.run ~until:(U.Units.ms 2.0) sim;
        Alcotest.(check bool) "latency violation" true ((R.Slo.check mgr).R.Slo.violations > 0));
  ]

(* {1 Health report} *)

let health_tests =
  [
    tc "quiet host: nothing congested, no talkers" (fun () ->
        let _, _, fab = make_host () in
        let counter = Mon.Counter.create fab ~fidelity:Mon.Counter.Oracle in
        let r = Mon.Health.collect counter ~tenants:[ 1 ] () in
        Alcotest.(check int) "no congestion" 0 (List.length r.Mon.Health.congested);
        Alcotest.(check int) "no talkers" 0 (List.length r.Mon.Health.top_talkers));
    tc "aggressors show up as congestion and top talkers" (fun () ->
        let _, _, fab = make_host () in
        let lb = W.Rdma.start_loopback fab ~tenant:3 ~nic:"nic0" () in
        let counter = Mon.Counter.create fab ~fidelity:Mon.Counter.Oracle in
        let r = Mon.Health.collect counter ~tenants:[ 3 ] () in
        Alcotest.(check bool) "congested" true (r.Mon.Health.congested <> []);
        (match r.Mon.Health.top_talkers with
        | t :: _ ->
          Alcotest.(check int) "tenant 3" 3 t.Mon.Health.tenant;
          Alcotest.(check bool) "big" true (t.Mon.Health.rate > 10e9)
        | [] -> Alcotest.fail "no talkers");
        W.Rdma.stop_loopback lb);
    tc "hardware fidelity hides talkers but still sees congestion" (fun () ->
        let _, _, fab = make_host () in
        let lb = W.Rdma.start_loopback fab ~tenant:3 ~nic:"nic0" () in
        let counter = Mon.Counter.create fab ~fidelity:(Mon.Counter.Hardware { max_read_hz = 1e6 }) in
        let r = Mon.Health.collect counter ~tenants:[ 3 ] () in
        Alcotest.(check bool) "congested" true (r.Mon.Health.congested <> []);
        Alcotest.(check int) "no talkers" 0 (List.length r.Mon.Health.top_talkers);
        W.Rdma.stop_loopback lb);
    tc "monitoring overhead counts monitor traffic only" (fun () ->
        let _, _, fab = make_host () in
        let sampler =
          Mon.Sampler.start fab
            {
              (Mon.Sampler.default_config ()) with
              Mon.Sampler.processing =
                Mon.Sampler.Ship { collector = "socket0"; bytes_per_sample = 64.0 };
            }
        in
        let counter = Mon.Counter.create fab ~fidelity:Mon.Counter.Oracle in
        let r = Mon.Health.collect counter () in
        Alcotest.(check bool) "overhead visible" true (r.Mon.Health.monitoring_overhead > 0.0);
        Mon.Sampler.stop sampler);
  ]

(* {1 Heartbeat recovery} *)

let recovery_tests =
  [
    tc "heartbeats report healthy again after the fault clears" (fun () ->
        let topo, sim, fab = make_host () in
        let hb = Mon.Heartbeat.start fab () in
        E.Sim.run ~until:(U.Units.ms 8.0) sim;
        Alcotest.(check bool) "healthy before" true (Mon.Heartbeat.healthy hb);
        let bad = (T.Topology.link_named topo "rp0.0" "pciesw0").T.Link.id in
        E.Fabric.inject_fault fab bad
          { E.Fault.capacity_factor = 1.0; extra_latency = U.Units.us 5.0; loss_prob = 0.0 };
        E.Sim.run ~until:(U.Units.ms 11.0) sim;
        Alcotest.(check bool) "sick during fault" false (Mon.Heartbeat.healthy hb);
        E.Fabric.clear_fault fab bad;
        E.Sim.run ~until:(U.Units.ms 14.0) sim;
        Alcotest.(check bool) "healthy after repair" true (Mon.Heartbeat.healthy hb);
        Mon.Heartbeat.stop hb);
  ]

(* {1 The vnet illusion, taken literally} *)

module RM = Ihnet_manager

let vnet_sim_tests =
  [
    tc "a tenant can run a full simulation inside its own vnet" (fun () ->
        let _, _, fab = make_host () in
        let mgr = RM.Manager.create fab () in
        (match
           RM.Manager.submit mgr (RM.Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:4e9)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Ihnet_manager.Mgr_error.to_string e));
        let vnet = RM.Manager.vnet mgr ~tenant:1 in
        (* the vnet is an ordinary topology: boot a fabric on it *)
        let vsim = E.Sim.create () in
        let vfab = E.Fabric.create vsim vnet in
        let p = T.Routing.route vnet "nic1" "socket0" in
        let f = E.Fabric.start_flow vfab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        (* inside the illusion, the tenant's "link capacity" IS its
           allocation: an elastic flow gets ~the guaranteed 4 GB/s
           (modulo PCIe header overhead on the pcie hop) *)
        Alcotest.(check bool) "illusion capacity" true
          (f.E.Flow.rate > 3.5e9 && f.E.Flow.rate <= 4.0e9));
  ]

(* {1 Fleet roll-up} *)

let fleet_tests =
  [
    tc "the congested host ranks first and needs attention" (fun () ->
        let member label ~loaded ~ddio_off =
          let config =
            if ddio_off then
              { T.Hostconfig.default with T.Hostconfig.ddio = T.Hostconfig.Ddio_off }
            else T.Hostconfig.default
          in
          let _, _, fab = make_host ~config () in
          if loaded then ignore (W.Rdma.start_loopback fab ~tenant:3 ~nic:"nic0" ());
          {
            Mon.Fleet.label;
            counter = Mon.Counter.create fab ~fidelity:Mon.Counter.Oracle;
            tenants = [ 3 ];
            slo = None;
          }
        in
        let fleet =
          Mon.Fleet.collect
            [
              member "quiet-host" ~loaded:false ~ddio_off:false;
              member "hot-host" ~loaded:true ~ddio_off:false;
              member "misconfigured-host" ~loaded:false ~ddio_off:true;
            ]
        in
        (match fleet.Mon.Fleet.hosts with
        | first :: _ -> Alcotest.(check string) "hot first" "hot-host" first.Mon.Fleet.label
        | [] -> Alcotest.fail "empty fleet");
        let attention =
          List.map (fun s -> s.Mon.Fleet.label) (Mon.Fleet.needs_attention fleet)
        in
        Alcotest.(check bool) "hot flagged" true (List.mem "hot-host" attention);
        Alcotest.(check bool) "misconfig flagged" true (List.mem "misconfigured-host" attention);
        Alcotest.(check bool) "quiet not flagged" false (List.mem "quiet-host" attention));
  ]

(* {1 Topology spec DSL} *)

let spec_tests =
  [
    tc "the documented example parses and validates" (fun () ->
        match T.Spec.parse T.Spec.example with
        | Ok topo ->
          Alcotest.(check string) "name" "my-server" (T.Topology.name topo);
          List.iter
            (fun name ->
              Alcotest.(check bool) (name ^ " exists") true
                (T.Topology.device_by_name topo name <> None))
            [ "socket0"; "socket1"; "sw0"; "nic0"; "gpu0"; "ssd0"; "nic1"; "gpu1"; "cxl0"; "ext" ]
        | Error e -> Alcotest.fail e);
    tc "a spec host runs real workloads" (fun () ->
        match T.Spec.parse T.Spec.example with
        | Error e -> Alcotest.fail e
        | Ok topo ->
          let sim = E.Sim.create () in
          let fab = E.Fabric.create sim topo in
          let kv = W.Kvstore.start fab (W.Kvstore.default_config ~tenant:1 ~nic:"nic0") in
          E.Sim.run ~until:(U.Units.ms 5.0) sim;
          Alcotest.(check bool) "served" true (W.Kvstore.achieved_rate kv > 0.0);
          W.Kvstore.stop kv);
    tc "config directives take effect" (fun () ->
        let text = "host h\nconfig ddio=off mps=128\nsocket 0\nnic n0 at 0:0 port=100\n" in
        match T.Spec.parse text with
        | Error e -> Alcotest.fail e
        | Ok topo ->
          let c = T.Topology.config topo in
          Alcotest.(check bool) "ddio off" true (c.T.Hostconfig.ddio = T.Hostconfig.Ddio_off);
          Alcotest.(check int) "mps" 128 c.T.Hostconfig.pcie_mps);
    tc "consecutive sockets are chained" (fun () ->
        let text = "socket 0\nsocket 1\nsocket 2\nnic n at 0:0 port=100\n" in
        match T.Spec.parse text with
        | Error e -> Alcotest.fail e
        | Ok topo ->
          let inter =
            List.filter
              (fun (l : T.Link.t) -> l.T.Link.kind = T.Link.Inter_socket)
              (T.Topology.links topo)
          in
          Alcotest.(check int) "two chain links" 2 (List.length inter));
    tc "errors carry line numbers" (fun () ->
        (match T.Spec.parse "socket 0\nbogus directive\n" with
        | Error e -> Alcotest.(check bool) "line 2" true (String.length e > 6 && String.sub e 0 6 = "line 2")
        | Ok _ -> Alcotest.fail "expected error");
        (match T.Spec.parse "socket 0\nnic n0 at 0:0\n" with
        | Error e -> Alcotest.(check bool) "mentions port" true (String.length e > 0)
        | Ok _ -> Alcotest.fail "nic without port must fail");
        (* both [at] forms name the socket that has no root complex *)
        List.iter
          (fun at ->
            match T.Spec.parse (Printf.sprintf "host broken\nswitch sw0 at %s\n" at) with
            | Error e ->
              Alcotest.(check string) ("at " ^ at)
                (Printf.sprintf "line 2: at %s: socket 9 has no root complex" at)
                e
            | Ok _ -> Alcotest.failf "at %s below an undeclared socket must fail" at)
          [ "9:9"; "9" ]);
    tc "attachment to unknown switch fails" (fun () ->
        match T.Spec.parse "socket 0\ngpu g on nowhere\n" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    tc "switches nest below switches" (fun () ->
        let text =
          "socket 0\nswitch top at 0:0\nswitch leaf on top\nnic n0 on leaf port=100\ngpu g0 on top\n"
        in
        match T.Spec.parse text with
        | Error e -> Alcotest.fail e
        | Ok topo ->
          let sim = E.Sim.create () in
          let fab = E.Fabric.create sim topo in
          (* the nic's path to memory crosses both switches *)
          let p = T.Routing.route topo "n0" "dimm0.0.0" in
          let names =
            List.map (fun id -> (T.Topology.device topo id).T.Device.name) (T.Path.devices p)
          in
          Alcotest.(check bool) "via leaf" true (List.mem "leaf" names);
          Alcotest.(check bool) "via top" true (List.mem "top" names);
          ignore fab);
    tc "root ports are created on demand and shared" (fun () ->
        let text = "socket 0\nnic a at 0:0 port=100\ngpu b at 0:0\n" in
        match T.Spec.parse text with
        | Error e -> Alcotest.fail e
        | Ok topo ->
          (* both devices hang off the same rp0.0 *)
          let rp = T.Topology.device_named topo "rp0.0" in
          Alcotest.(check int) "rp has 3 links" 3
            (List.length (T.Topology.neighbors topo rp.T.Device.id)));
  ]

(* {1 Scenarios} *)

let scenario_tests =
  [
    tc "every scenario starts, reports metrics, and tears down" (fun () ->
        List.iter
          (fun (name, _) ->
            let _, sim, fab = make_host () in
            match W.Scenario.find name with
            | None -> Alcotest.failf "scenario %s not found" name
            | Some make ->
              let h = make fab in
              Alcotest.(check string) "name matches" name h.W.Scenario.name;
              E.Sim.run ~until:(U.Units.ms 5.0) sim;
              let metrics = h.W.Scenario.metrics () in
              Alcotest.(check bool) (name ^ " has metrics") true (metrics <> []);
              List.iter
                (fun (k, v) ->
                  Alcotest.(check bool) (k ^ " non-empty") true (String.length v > 0))
                metrics;
              h.W.Scenario.stop ();
              E.Sim.run ~until:(U.Units.ms 6.0) sim;
              Alcotest.(check int) (name ^ " cleaned up") 0 (E.Fabric.flow_count fab))
          W.Scenario.all);
    tc "unknown scenario is None" (fun () ->
        Alcotest.(check bool) "none" true (W.Scenario.find "nope" = None));
  ]

(* {1 Telemetry CSV + Jain index} *)

let telemetry_export_tests =
  [
    tc "to_csv dumps selected series in order" (fun () ->
        let tm = Mon.Telemetry.create () in
        Mon.Telemetry.record tm ~series:"b" ~at:2.0 0.5;
        Mon.Telemetry.record tm ~series:"a" ~at:1.0 1.5;
        Mon.Telemetry.record tm ~series:"a" ~at:3.0 2.5;
        let csv = Mon.Telemetry.to_csv ~series:[ "a" ] tm in
        let lines = String.split_on_char '\n' (String.trim csv) in
        Alcotest.(check int) "header + 2" 3 (List.length lines);
        Alcotest.(check string) "header" "series,at_ns,value" (List.hd lines);
        Alcotest.(check string) "first" "a,1,1.5" (List.nth lines 1));
    tc "jain index: equal shares = 1, monopoly = 1/n" (fun () ->
        Alcotest.(check (float 1e-9)) "equal" 1.0 (U.Stats.jain_index [| 5.0; 5.0; 5.0 |]);
        Alcotest.(check (float 1e-9)) "monopoly" (1.0 /. 4.0)
          (U.Stats.jain_index [| 8.0; 0.0; 0.0; 0.0 |]);
        Alcotest.(check bool) "empty nan" true (Float.is_nan (U.Stats.jain_index [||]));
        Alcotest.(check bool) "zeros nan" true (Float.is_nan (U.Stats.jain_index [| 0.0; 0.0 |])));
    tc "health fairness reflects the traffic mix" (fun () ->
        let topo, _, fab = make_host () in
        (* two tenants with very different rates *)
        ignore
          (E.Fabric.start_flow fab ~tenant:1 ~demand:20e9
             ~path:(T.Routing.route topo "nic0" "socket0")
             ~llc_target:true ~size:E.Flow.Unbounded ());
        ignore
          (E.Fabric.start_flow fab ~tenant:2 ~demand:1e9
             ~path:(T.Routing.route topo "nic1" "socket0")
             ~llc_target:true ~size:E.Flow.Unbounded ());
        let counter = Mon.Counter.create fab ~fidelity:Mon.Counter.Oracle in
        let r = Mon.Health.collect counter ~tenants:[ 1; 2 ] () in
        Alcotest.(check bool) "unfair mix" true
          ((not (Float.is_nan r.Mon.Health.tenant_fairness))
          && r.Mon.Health.tenant_fairness < 0.85));
  ]

(* {1 Experiment smoke tests (fast subset)} *)

(* E5 (DDIO thrashing) and E15 (admission churn) are cheap
   experiments whose DDIO spill loops take three or more solves to
   reach their fixed point *)
let experiment_smoke =
  let smoke id =
    tc (id ^ " runs and matches") (fun () ->
        match Ihnet_experiments.Registry.find id with
        | None -> Alcotest.failf "unknown experiment %s" id
        | Some run ->
          let r = run () in
          Alcotest.(check bool)
            (id ^ " verdict has no MISMATCH")
            false
            (Ihnet_experiments.Registry.contains_mismatch r.Ihnet_experiments.Common.verdict))
  in
  List.map smoke [ "E1"; "E2"; "E3"; "E5"; "E13"; "E15"; "A1"; "A3" ]

let suites =
  [
    ("ext.multimodal", multimodal_tests);
    ("ext.cxl", cxl_tests);
    ("ext.events", event_tests);
    ("ext.device-failure", device_failure_tests);
    ("ext.determinism", determinism_tests);
    ("ext.slo", slo_tests);
    ("ext.health", health_tests);
    ("ext.heartbeat-recovery", recovery_tests);
    ("ext.vnet-simulation", vnet_sim_tests);
    ("ext.fleet", fleet_tests);
    ("ext.spec", spec_tests);
    ("ext.scenario", scenario_tests);
    ("ext.telemetry-export", telemetry_export_tests);
    ("ext.experiments-smoke", experiment_smoke);
  ]
