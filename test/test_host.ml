(* Integration tests for the Ihnet.Host facade — end-to-end scenarios. *)

open Ihnet
module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module Mon = Ihnet_monitor
module R = Ihnet_manager

let tc name f = Alcotest.test_case name `Quick f

let host_tests =
  [
    tc "presets build and validate" (fun () ->
        List.iter
          (fun preset -> ignore (Host.create preset))
          [ Host.Two_socket; Host.Dgx; Host.Epyc; Host.Minimal ]);
    tc "custom topology is validated" (fun () ->
        let bad = T.Topology.create ~name:"bad" () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Host.create (Host.Custom bad));
             false
           with Invalid_argument _ -> true));
    tc "run_for advances the clock" (fun () ->
        let h = Host.create Host.Minimal in
        Host.run_for h (U.Units.ms 5.0);
        Alcotest.(check (float 1.0)) "now" (U.Units.ms 5.0) (Host.now h));
    tc "tenants register through the host" (fun () ->
        let h = Host.create Host.Minimal in
        let t1 = Host.add_tenant h ~name:"kv" in
        Alcotest.(check int) "first vm id" 1 t1.W.Tenant.id);
    tc "diagnostics shortcuts work" (fun () ->
        let h = Host.create Host.Two_socket in
        (match Host.ping h ~src:"nic0" ~dst:"socket0" with
        | Some rtt -> Alcotest.(check bool) "rtt" true (rtt > 0.0)
        | None -> Alcotest.fail "lost");
        Alcotest.(check bool) "trace" true (List.length (Host.trace h ~src:"ext" ~dst:"gpu0") >= 3);
        Alcotest.(check bool) "bandwidth" true (Host.bandwidth h ~src:"gpu0" ~dst:"ssd0" > 1e9));
    tc "monitoring and manager are idempotent" (fun () ->
        let h = Host.create Host.Minimal in
        let s1 = Host.start_monitoring h () in
        let s2 = Host.start_monitoring h () in
        Alcotest.(check bool) "same sampler" true (s1 == s2);
        let m1 = Host.enable_manager h () in
        let m2 = Host.enable_manager h () in
        Alcotest.(check bool) "same manager" true (m1 == m2));
    tc "clean config reports no findings" (fun () ->
        let h = Host.create Host.Two_socket in
        Alcotest.(check (list string)) "clean" [] (Host.check_configuration h));
    tc "default wiring leaves the sketch plane dormant" (fun () ->
        let h = Host.create Host.Minimal in
        ignore (Host.start_monitoring h ());
        ignore (Host.enable_manager h ());
        Alcotest.(check bool) "dormant" false
          (E.Fabric.latency_sketches_enabled (Host.fabric h)));
    tc "wiring.latency_sketches arms the plane" (fun () ->
        let h = Host.create Host.Minimal in
        ignore
          (Host.start_monitoring h
             ~wiring:{ Host.default_wiring with Host.latency_sketches = true }
             ());
        Alcotest.(check bool) "enabled via monitoring" true
          (E.Fabric.latency_sketches_enabled (Host.fabric h));
        let h2 = Host.create Host.Minimal in
        ignore
          (Host.enable_manager h2
             ~wiring:{ Host.default_wiring with Host.latency_sketches = true }
             ());
        Alcotest.(check bool) "enabled via manager" true
          (E.Fabric.latency_sketches_enabled (Host.fabric h2)));
  ]

(* End-to-end scenario: the paper's §2 interference story plus its §3
   remedy, in one test. *)
let scenario_tests =
  [
    tc "E2E: aggressor hurts the kv store; the manager heals it" (fun () ->
        let h = Host.create Host.Two_socket in
        let fab = Host.fabric h in
        let kv_tenant = Host.add_tenant h ~name:"kv" in
        let ml_tenant = Host.add_tenant h ~name:"ml" in
        (* phase 1: kv alone *)
        let kv =
          W.Kvstore.start fab (W.Kvstore.default_config ~tenant:kv_tenant.W.Tenant.id ~nic:"nic0")
        in
        Host.run_for h (U.Units.ms 10.0);
        let alone = U.Sketch.percentile (W.Kvstore.latencies kv) 0.99 in
        (* phase 2: co-located ML trainer steals the PCIe subtree *)
        let ml =
          W.Mltrain.start fab
            {
              (W.Mltrain.default_config ~tenant:ml_tenant.W.Tenant.id ~gpu:"gpu0"
                 ~data_source:"dimm0.0.0") with
              W.Mltrain.compute_time = 0.0;
            }
        in
        Host.run_for h (U.Units.ms 20.0);
        let contended = U.Sketch.percentile (W.Kvstore.latencies kv) 0.99 in
        Alcotest.(check bool) "interference visible" true (contended > alone *. 1.2);
        (* phase 3: submit an intent; the shim protects the kv flows *)
        let mgr = Host.enable_manager h () in
        (match
           Host.submit_intent h
             (R.Intent.pipe ~tenant:kv_tenant.W.Tenant.id ~src:"ext" ~dst:"socket0"
                ~rate:(U.Units.gbps 4.0))
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Manager.error_to_string e));
        Host.run_for h (U.Units.ms 30.0);
        Alcotest.(check bool) "manager engaged" true (R.Manager.decisions mgr > 0);
        Alcotest.(check bool) "kv keeps its rate under management" true
          (W.Kvstore.achieved_rate kv >= W.Kvstore.offered_rate kv *. 0.98);
        W.Mltrain.stop ml;
        W.Kvstore.stop kv);
    tc "E2E: monitor pipeline detects an injected anomaly" (fun () ->
        let h = Host.create Host.Two_socket in
        let fab = Host.fabric h in
        let sampler =
          Host.start_monitoring h
            ~wiring:
              {
                Host.default_wiring with
                Host.sampler =
                  Some
                    {
                      (Mon.Sampler.default_config ()) with
                      Mon.Sampler.period = U.Units.us 100.0;
                      fidelity = Mon.Counter.Oracle;
                    };
              }
            ()
        in
        let topo = Host.topology h in
        let link = (T.Topology.link_named topo "pciesw0" "nic0").T.Link.id in
        let platform = Mon.Anomaly.create () in
        Mon.Anomaly.watch platform
          ~series:(Mon.Sampler.util_series link T.Link.Rev)
          (Mon.Anomaly.Threshold { above = Some 0.8; below = None });
        Host.run_for h (U.Units.ms 5.0);
        Mon.Anomaly.feed platform (Mon.Sampler.telemetry sampler);
        Alcotest.(check bool) "quiet" true (Mon.Anomaly.alarms platform = []);
        (* loopback aggressor saturates the nic link *)
        let lb = W.Rdma.start_loopback fab ~tenant:5 ~nic:"nic0" () in
        Host.run_for h (U.Units.ms 5.0);
        Mon.Anomaly.feed platform (Mon.Sampler.telemetry sampler);
        Alcotest.(check bool) "alarm" true (Mon.Anomaly.alarms platform <> []);
        W.Rdma.stop_loopback lb);
    tc "E2E: dgx host sustains many concurrent tenants" (fun () ->
        let h = Host.create Host.Dgx in
        let fab = Host.fabric h in
        let topo = Host.topology h in
        (* one trainer per GPU pair, one storage stream, heartbeats on *)
        ignore (Host.start_heartbeats h ());
        let trainers =
          List.filter_map
            (fun i ->
              let gpu = Printf.sprintf "gpu%d" i in
              if T.Topology.device_by_name topo gpu <> None then
                Some
                  (W.Mltrain.start fab
                     {
                       (W.Mltrain.default_config ~tenant:(i + 1) ~gpu ~data_source:"dimm0.0.0") with
                       W.Mltrain.batch_bytes = U.Units.mib 32.0;
                       compute_time = U.Units.ms 1.0;
                     })
              else None)
            [ 0; 2; 4; 6 ]
        in
        Host.run_for h (U.Units.ms 50.0);
        List.iter
          (fun tr -> Alcotest.(check bool) "progress" true (W.Mltrain.iterations_done tr >= 2))
          trainers;
        (* heartbeats stayed healthy *)
        match Host.heartbeat h with
        | Some hb -> Alcotest.(check bool) "no failures" true (Mon.Heartbeat.failing_pairs hb = [])
        | None -> Alcotest.fail "no heartbeat");
  ]

(* The enforcement shim runs every 50 µs for as long as the manager is
   on. A pass with no attached flow must cost nothing: no reallocation
   epoch, no trace line, no architectural register moved. *)

let place_pipe h =
  match Host.submit_intent h (R.Intent.pipe ~tenant:1 ~src:"nic0" ~dst:"socket0" ~rate:2e9) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (R.Manager.error_to_string e)

let idle_tests =
  [
    tc "a placed pipe with no flow costs no epoch, trace line or register" (fun () ->
        let h = Host.create ~seed:5 Host.Minimal in
        place_pipe h;
        let fab = Host.fabric h in
        let r = Ihnet_record.Recorder.attach ~sink:(fun _ -> ()) fab in
        let allocs = E.Fabric.reallocations fab and lines = Ihnet_record.Recorder.lines r in
        Host.run_for h (U.Units.ms 1.0);
        Alcotest.(check int) "no reallocation" allocs (E.Fabric.reallocations fab);
        Alcotest.(check int) "no trace line" lines (Ihnet_record.Recorder.lines r);
        let bare = Host.create ~seed:5 Host.Minimal in
        Host.run_for bare (U.Units.ms 1.0);
        match Ihnet_record.Scanport.diff ~scope:`Arch (Host.scan bare) (Host.scan h) with
        | None -> ()
        | Some m -> Alcotest.failf "%a" Ihnet_record.Scanport.pp_mismatch m);
    (* Each idle pass queues the next, and a bare step cannot skip
       ahead: a step looking for an epoch here ran forever before it
       had an event budget. Where it gives up depends on events, not
       on time, so two hosts stop in the same state. *)
    tc "a scan step on a placed pipe with no flow gives up with no epoch" (fun () ->
        let stepped () =
          let h = Host.create ~seed:5 Host.Minimal in
          place_pipe h;
          let fab = Host.fabric h in
          let epoch = E.Fabric.scan_epoch fab in
          let fz = Ihnet_record.Scanport.freeze fab in
          Alcotest.(check int) "epochs stepped" 0 (Ihnet_record.Scanport.step fz 1);
          Alcotest.(check int) "epoch" epoch (E.Fabric.scan_epoch fab);
          Alcotest.(check bool) "the shim ran" true (E.Fabric.scan_clock fab > 0.0);
          Host.scan h
        in
        match Ihnet_record.Scanport.diff ~scope:`Arch (stepped ()) (stepped ()) with
        | None -> ()
        | Some m -> Alcotest.failf "%a" Ihnet_record.Scanport.pp_mismatch m);
    tc "unmanaged flows and no placement cost the shim no epoch" (fun () ->
        let h = Host.create Host.Dgx in
        ignore (Host.enable_manager h ());
        let fab = Host.fabric h in
        for i = 0 to 7 do
          let p =
            T.Routing.route (Host.topology h) (Printf.sprintf "gpu%d" i)
              (Printf.sprintf "nic%d" ((i + 3) mod 8))
          in
          ignore (E.Fabric.start_flow fab ~tenant:(i + 1) ~path:p ~size:E.Flow.Unbounded ())
        done;
        let allocs = E.Fabric.reallocations fab in
        Host.run_for h (U.Units.ms 1.0);
        Alcotest.(check int) "no reallocation" allocs (E.Fabric.reallocations fab));
    tc "an attached running flow is enforced on every pass" (fun () ->
        let h = Host.create Host.Minimal in
        place_pipe h;
        let fab = Host.fabric h in
        let mgr = Option.get (Host.manager h) in
        let f =
          E.Fabric.start_flow fab ~tenant:1
            ~path:(T.Routing.route (Host.topology h) "nic0" "socket0")
            ~size:E.Flow.Unbounded ()
        in
        Host.run_for h (U.Units.us 100.0);
        Alcotest.(check bool) "attached" true (R.Arbiter.guaranteed_of (R.Manager.arbiter mgr) f > 0.0);
        let decisions = R.Manager.decisions mgr and allocs = E.Fabric.reallocations fab in
        (* 1 ms at a 50 µs period: 20 passes *)
        Host.run_for h (U.Units.ms 1.0);
        Alcotest.(check int) "one decision per pass" (decisions + 20) (R.Manager.decisions mgr);
        Alcotest.(check int) "one epoch per pass" (allocs + 20) (E.Fabric.reallocations fab));
  ]

let suites =
  [ ("host.facade", host_tests); ("host.scenarios", scenario_tests); ("host.idle", idle_tests) ]
