(* Unit and integration tests for ihnet_workload. *)

open Ihnet_workload
module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util

let tc name f = Alcotest.test_case name `Quick f
let check_close ?(eps = 1e-6) msg expected actual = Alcotest.(check (float eps)) msg expected actual

let make_host () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  (topo, sim, fab)

(* {1 Tenant registry} *)

let tenant_tests =
  [
    tc "infra tenant is pre-registered as id 0" (fun () ->
        let reg = Tenant.create_registry () in
        Alcotest.(check int) "id" 0 (Tenant.infra reg).Tenant.id;
        Alcotest.(check int) "count" 1 (Tenant.count reg));
    tc "register assigns increasing ids" (fun () ->
        let reg = Tenant.create_registry () in
        let a = Tenant.register reg ~name:"a" ~kind:Tenant.Vm in
        let b = Tenant.register reg ~name:"b" ~kind:Tenant.Container in
        Alcotest.(check int) "a" 1 a.Tenant.id;
        Alcotest.(check int) "b" 2 b.Tenant.id);
    tc "duplicate names rejected" (fun () ->
        let reg = Tenant.create_registry () in
        ignore (Tenant.register reg ~name:"x" ~kind:Tenant.Vm);
        Alcotest.check_raises "dup" (Invalid_argument "Tenant.register: duplicate name x")
          (fun () -> ignore (Tenant.register reg ~name:"x" ~kind:Tenant.Vm)));
    tc "find by id and name" (fun () ->
        let reg = Tenant.create_registry () in
        let a = Tenant.register reg ~name:"kv" ~kind:Tenant.Vm in
        Alcotest.(check bool) "by id" true (Tenant.find reg a.Tenant.id = Some a);
        Alcotest.(check bool) "by name" true (Tenant.find_by_name reg "kv" = Some a);
        Alcotest.(check bool) "missing" true (Tenant.find reg 99 = None));
  ]

(* {1 Traffic generators} *)

let traffic_tests =
  [
    tc "constant stream offers its configured rate" (fun () ->
        let topo, sim, fab = make_host () in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let s = Traffic.constant_stream fab ~tenant:1 ~rate:1e9 ~path:p () in
        check_close ~eps:1e3 "rate" 1e9 (Traffic.current_rate s);
        E.Sim.run ~until:(U.Units.ms 10.0) sim;
        (* 1 GB/s for 10 ms = 10 MB *)
        check_close ~eps:1e4 "moved" 1e7 (Traffic.transferred_bytes s);
        Traffic.stop s;
        check_close "stopped" 0.0 (Traffic.current_rate s));
    tc "poisson transfers complete and report durations" (fun () ->
        let topo, sim, fab = make_host () in
        let p = T.Routing.route topo "ssd0" "dimm0.0.0" in
        let rng = U.Rng.create 7 in
        let count = ref 0 in
        let s =
          Traffic.poisson_transfers fab ~rng ~tenant:1 ~rate_per_s:10_000.0
            ~size:(Traffic.Fixed 1e6) ~path:p
            ~on_transfer:(fun ~bytes ~duration ->
              Alcotest.(check bool) "sane" true (bytes = 1e6 && duration > 0.0);
              incr count)
            ()
        in
        E.Sim.run ~until:(U.Units.ms 10.0) sim;
        Traffic.stop s;
        (* ~100 arrivals expected in 10 ms at 10k/s *)
        Alcotest.(check bool) "plausible count" true (!count > 50 && !count < 200));
    tc "poisson arrivals stop after stop" (fun () ->
        let topo, sim, fab = make_host () in
        let p = T.Routing.route topo "ssd0" "dimm0.0.0" in
        let rng = U.Rng.create 7 in
        let count = ref 0 in
        let s =
          Traffic.poisson_transfers fab ~rng ~tenant:1 ~rate_per_s:10_000.0
            ~size:(Traffic.Fixed 1e4) ~path:p
            ~on_transfer:(fun ~bytes:_ ~duration:_ -> incr count)
            ()
        in
        E.Sim.run ~until:(U.Units.ms 5.0) sim;
        Traffic.stop s;
        let at_stop = !count in
        E.Sim.run ~until:(U.Units.ms 20.0) sim;
        Alcotest.(check int) "no new arrivals" at_stop !count);
    tc "on_off stream idles between bursts" (fun () ->
        let topo, sim, fab = make_host () in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let s =
          Traffic.on_off_stream fab ~tenant:1 ~rate:1e9 ~period:(U.Units.ms 1.0) ~duty:0.5
            ~path:p ()
        in
        (* during first on-phase *)
        E.Sim.run ~until:(U.Units.us 100.0) sim;
        check_close ~eps:1e3 "on" 1e9 (Traffic.current_rate s);
        (* in the off-phase (0.5 - 1.0 ms) *)
        E.Sim.run ~until:(U.Units.us 700.0) sim;
        check_close "off" 0.0 (Traffic.current_rate s);
        (* second on-phase *)
        E.Sim.run ~until:(U.Units.us 1100.0) sim;
        check_close ~eps:1e3 "on again" 1e9 (Traffic.current_rate s);
        Traffic.stop s);
    tc "duty 1.0 keeps the source always on" (fun () ->
        let topo, sim, fab = make_host () in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let s =
          Traffic.on_off_stream fab ~tenant:1 ~rate:1e9 ~period:(U.Units.ms 1.0) ~duty:1.0
            ~path:p ()
        in
        (* sample across several period boundaries *)
        List.iter
          (fun ms ->
            E.Sim.run ~until:(U.Units.ms ms) sim;
            check_close ~eps:1e3 (Printf.sprintf "on at %.1f ms" ms) 1e9
              (Traffic.current_rate s))
          [ 0.5; 1.5; 2.5 ];
        Traffic.stop s);
    tc "constructors refuse NaN and out-of-range fields, naming them" (fun () ->
        let topo, _, fab = make_host () in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let rng = U.Rng.create 7 in
        let refuses msg f =
          Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
        in
        let poisson r () =
          Traffic.poisson_transfers fab ~rng ~tenant:1 ~rate_per_s:r ~size:(Traffic.Fixed 1e4)
            ~path:p ()
        in
        refuses "Traffic.poisson_transfers: rate_per_s must be finite and > 0 (got nan)"
          (poisson nan);
        refuses "Traffic.poisson_transfers: rate_per_s must be finite and > 0 (got 0)"
          (poisson 0.0);
        refuses "Traffic.poisson_transfers: rate_per_s must be finite and > 0 (got inf)"
          (poisson infinity);
        let constant r () = Traffic.constant_stream fab ~tenant:1 ~rate:r ~path:p () in
        refuses "Traffic.constant_stream: rate must be > 0 (got nan)" (constant nan);
        refuses "Traffic.constant_stream: rate must be > 0 (got -1)" (constant (-1.0));
        let on_off ?(rate = 1e9) ?(period = U.Units.ms 1.0) ?(duty = 0.5) () =
          Traffic.on_off_stream fab ~tenant:1 ~rate ~period ~duty ~path:p ()
        in
        refuses "Traffic.on_off_stream: duty must be in (0, 1] (got nan)" (on_off ~duty:nan);
        refuses "Traffic.on_off_stream: duty must be in (0, 1] (got 1.5)" (on_off ~duty:1.5);
        refuses "Traffic.on_off_stream: period must be > 0 (got nan)" (on_off ~period:nan);
        refuses "Traffic.on_off_stream: period must be > 0 (got 0)" (on_off ~period:0.0);
        refuses "Traffic.on_off_stream: rate must be > 0 (got nan)" (on_off ~rate:nan);
        refuses "Traffic.on_off_stream: rate must be > 0 (got -1)" (on_off ~rate:(-1.0));
        Alcotest.(check int) "no flow started" 0 (E.Fabric.flow_count fab));
    tc "size distributions respect bounds" (fun () ->
        let rng = U.Rng.create 3 in
        for _ = 1 to 200 do
          let u = Traffic.draw_size rng (Traffic.Uniform (10.0, 20.0)) in
          Alcotest.(check bool) "uniform" true (u >= 10.0 && u < 20.0);
          let p = Traffic.draw_size rng (Traffic.Pareto { alpha = 1.5; x_min = 100.0 }) in
          Alcotest.(check bool) "pareto" true (p >= 100.0)
        done);
  ]

(* {1 KV store} *)

let kvstore_tests =
  [
    tc "idle kv store has low, stable latency" (fun () ->
        let _, sim, fab = make_host () in
        let kv = Kvstore.start fab (Kvstore.default_config ~tenant:1 ~nic:"nic0") in
        E.Sim.run ~until:(U.Units.ms 20.0) sim;
        let lat = Kvstore.latencies kv in
        Alcotest.(check bool) "samples" true (U.Sketch.count lat > 100);
        let p50 = U.Sketch.percentile lat 0.5 in
        (* two inter-host hops alone are 3 us; idle intra-host adds ~1 us *)
        Alcotest.(check bool) "sane idle latency" true (p50 > 3_000.0 && p50 < 15_000.0);
        Kvstore.stop kv);
    tc "kv latency degrades under pcie congestion" (fun () ->
        let _, sim, fab = make_host () in
        let kv = Kvstore.start fab (Kvstore.default_config ~tenant:1 ~nic:"nic0") in
        E.Sim.run ~until:(U.Units.ms 10.0) sim;
        let idle_p50 = U.Sketch.percentile (Kvstore.latencies kv) 0.5 in
        (* aggressor on the same PCIe subtree *)
        let agg = Rdma.start_loopback fab ~tenant:2 ~nic:"nic0" () in
        E.Sim.run ~until:(U.Units.ms 30.0) sim;
        let busy_p50 = U.Sketch.percentile (Kvstore.latencies kv) 0.5 in
        Alcotest.(check bool) "worse" true (busy_p50 > idle_p50);
        Rdma.stop_loopback agg;
        Kvstore.stop kv);
    tc "achieved rate tracks offered rate when uncontended" (fun () ->
        let _, sim, fab = make_host () in
        let kv = Kvstore.start fab (Kvstore.default_config ~tenant:1 ~nic:"nic0") in
        E.Sim.run ~until:(U.Units.ms 5.0) sim;
        check_close ~eps:100.0 "rate" (Kvstore.offered_rate kv) (Kvstore.achieved_rate kv);
        Kvstore.stop kv);
    tc "rejects unknown nic" (fun () ->
        let _, _, fab = make_host () in
        Alcotest.check_raises "bad nic" (Invalid_argument "no device nicX") (fun () ->
            ignore (Kvstore.start fab (Kvstore.default_config ~tenant:1 ~nic:"nicX"))));
    tc "dimm-targeted store bypasses the LLC and touches the channel" (fun () ->
        let _, sim, fab = make_host () in
        let config =
          { (Kvstore.default_config ~tenant:1 ~nic:"nic0") with Kvstore.target = `Dimm "dimm0.0.0" }
        in
        let kv = Kvstore.start fab config in
        E.Sim.run ~until:(U.Units.ms 5.0) sim;
        (* no DDIO writes registered; the channel carries the requests *)
        Alcotest.(check (float 1e3)) "no ddio writes" 0.0
          (E.Fabric.ddio_write_rate fab ~socket:0);
        let l = T.Topology.link_named (E.Fabric.topology fab) "mc0.0" "dimm0.0.0" in
        let moved =
          E.Fabric.tenant_link_bytes fab l.T.Link.id T.Link.Fwd ~tenant:1
          +. E.Fabric.tenant_link_bytes fab l.T.Link.id T.Link.Rev ~tenant:1
        in
        Alcotest.(check bool) "channel traffic" true (moved > 1e5);
        Kvstore.stop kv);
    tc "backlog penalty appears when the store is throttled" (fun () ->
        let _, sim, fab = make_host () in
        let kv = Kvstore.start fab (Kvstore.default_config ~tenant:1 ~nic:"nic0") in
        E.Sim.run ~until:(U.Units.ms 5.0) sim;
        let idle_p50 = U.Sketch.percentile (Kvstore.latencies kv) 0.5 in
        (* throttle the store's inbound flow far below its offered load *)
        List.iter
          (fun (f : E.Flow.t) ->
            if f.E.Flow.tenant = 1 then E.Fabric.set_flow_limits fab f ~cap:1e6 ())
          (E.Fabric.active_flows fab);
        U.Sketch.clear (Kvstore.latencies kv);
        E.Sim.run ~until:(U.Units.ms 10.0) sim;
        let throttled_p50 = U.Sketch.percentile (Kvstore.latencies kv) 0.5 in
        Alcotest.(check bool) "queueing penalty" true (throttled_p50 > idle_p50 *. 10.0);
        Alcotest.(check bool) "achieved collapsed" true
          (Kvstore.achieved_rate kv < Kvstore.offered_rate kv /. 10.0);
        Kvstore.stop kv);
    tc "start refuses a NaN or non-positive rate, naming the field" (fun () ->
        let _, _, fab = make_host () in
        let base = Kvstore.default_config ~tenant:1 ~nic:"nic0" in
        Alcotest.check_raises "request_rate"
          (Invalid_argument "Kvstore.start: request_rate must be > 0 (got nan)") (fun () ->
            ignore (Kvstore.start fab { base with Kvstore.request_rate = nan }));
        Alcotest.check_raises "sample_rate"
          (Invalid_argument "Kvstore.start: sample_rate must be > 0 (got 0)") (fun () ->
            ignore (Kvstore.start fab { base with Kvstore.sample_rate = 0.0 }));
        Alcotest.(check int) "nothing started" 0 (E.Fabric.flow_count fab));
  ]

(* {1 ML trainer} *)

let mltrain_tests =
  [
    tc "iterations complete and are timed" (fun () ->
        let _, sim, fab = make_host () in
        let config =
          {
            (Mltrain.default_config ~tenant:1 ~gpu:"gpu0" ~data_source:"dimm0.0.0") with
            Mltrain.batch_bytes = U.Units.mib 64.0;
            compute_time = U.Units.ms 1.0;
            iterations = Some 5;
          }
        in
        let ml = Mltrain.start fab config in
        E.Sim.run sim;
        Alcotest.(check int) "iters" 5 (Mltrain.iterations_done ml);
        Alcotest.(check bool) "stopped" false (Mltrain.running ml);
        let times = Mltrain.iteration_times ml in
        Alcotest.(check int) "timed" 5 (U.Sketch.count times);
        (* 64 MiB at <= 25.6 GB/s is >= 2.6 ms, plus 1 ms compute *)
        Alcotest.(check bool) "duration sane" true
          (U.Sketch.percentile times 0.5 > U.Units.ms 3.0));
    tc "congestion stretches iterations" (fun () ->
        let topo, sim, fab = make_host () in
        let config =
          {
            (Mltrain.default_config ~tenant:1 ~gpu:"gpu0" ~data_source:"dimm0.0.0") with
            Mltrain.batch_bytes = U.Units.mib 64.0;
            compute_time = 0.0;
            iterations = Some 3;
          }
        in
        let alone = Mltrain.start fab config in
        E.Sim.run sim;
        let t_alone = U.Sketch.mean (Mltrain.iteration_times alone) in
        (* competing bulk flow on the same path *)
        let p = T.Routing.route topo "dimm0.0.0" "gpu0" in
        let agg = E.Fabric.start_flow fab ~tenant:2 ~path:p ~size:E.Flow.Unbounded () in
        let busy = Mltrain.start fab config in
        E.Sim.run sim;
        ignore agg;
        let t_busy = U.Sketch.mean (Mltrain.iteration_times busy) in
        Alcotest.(check bool) "slower" true (t_busy > t_alone *. 1.3));
    tc "sync transfers traverse the nic" (fun () ->
        let _, sim, fab = make_host () in
        let config =
          {
            (Mltrain.default_config ~tenant:1 ~gpu:"gpu0" ~data_source:"dimm0.0.0") with
            Mltrain.batch_bytes = 1e6;
            compute_time = 0.0;
            sync = Some ("nic0", 1e6);
            iterations = Some 2;
          }
        in
        let ml = Mltrain.start fab config in
        E.Sim.run sim;
        Alcotest.(check int) "iters" 2 (Mltrain.iterations_done ml);
        (* bytes must have crossed the gpu-switch link in both runs *)
        let l = T.Topology.link_named (E.Fabric.topology fab) "pciesw0" "gpu0" in
        let b =
          E.Fabric.tenant_link_bytes fab l.T.Link.id T.Link.Fwd ~tenant:1
          +. E.Fabric.tenant_link_bytes fab l.T.Link.id T.Link.Rev ~tenant:1
        in
        Alcotest.(check bool) "nonzero" true (b > 3e6));
    tc "stop interrupts the loop" (fun () ->
        let _, sim, fab = make_host () in
        let ml =
          Mltrain.start fab (Mltrain.default_config ~tenant:1 ~gpu:"gpu0" ~data_source:"dimm0.0.0")
        in
        E.Sim.run ~until:(U.Units.ms 3.0) sim;
        Mltrain.stop ml;
        let done_at_stop = Mltrain.iterations_done ml in
        E.Sim.run ~until:(U.Units.ms 100.0) sim;
        Alcotest.(check int) "no progress after stop" done_at_stop (Mltrain.iterations_done ml));
    tc "start refuses a NaN or out-of-range field, naming it" (fun () ->
        let _, _, fab = make_host () in
        let base = Mltrain.default_config ~tenant:1 ~gpu:"gpu0" ~data_source:"dimm0.0.0" in
        Alcotest.check_raises "batch_bytes"
          (Invalid_argument "Mltrain.start: batch_bytes must be > 0 (got nan)") (fun () ->
            ignore (Mltrain.start fab { base with Mltrain.batch_bytes = nan }));
        Alcotest.check_raises "compute_time"
          (Invalid_argument "Mltrain.start: compute_time must be >= 0 (got -1)") (fun () ->
            ignore (Mltrain.start fab { base with Mltrain.compute_time = -1.0 }));
        Alcotest.check_raises "loader_streams"
          (Invalid_argument "Mltrain.start: loader_streams must be >= 1 (got 0)") (fun () ->
            ignore (Mltrain.start fab { base with Mltrain.loader_streams = 0 })));
  ]

(* {1 RDMA} *)

let rdma_tests =
  [
    tc "loopback exhausts pcie bandwidth" (fun () ->
        let _, sim, fab = make_host () in
        let lb = Rdma.start_loopback fab ~tenant:2 ~nic:"nic0" () in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        (* both directions of the nic's x16 link should be nearly full *)
        Alcotest.(check bool) "aggregate" true (Rdma.loopback_rate lb > 40e9);
        Rdma.stop_loopback lb;
        Alcotest.(check bool) "released" true (Rdma.loopback_rate lb < 1.0));
    tc "remote read breakdown covers classes 2..5" (fun () ->
        let _, _, fab = make_host () in
        let hops = Rdma.remote_read_breakdown fab ~nic:"nic0" ~target:"dimm0.0.0" in
        let classes =
          List.filter_map (fun (h : Rdma.hop_breakdown) -> h.Rdma.figure1_class) hops
          |> List.sort_uniq compare
        in
        Alcotest.(check bool) "has inter-host" true (List.mem 5 classes);
        Alcotest.(check bool) "has pcie" true (List.mem 3 classes || List.mem 4 classes);
        Alcotest.(check bool) "has memory" true (List.mem 2 classes));
    tc "intra-host share is meaningful and grows under load" (fun () ->
        let _, sim, fab = make_host () in
        let idle = Rdma.intra_host_share fab ~nic:"nic0" ~target:"dimm0.0.0" in
        Alcotest.(check bool) "idle share" true (idle > 0.1 && idle < 0.6);
        let lb = Rdma.start_loopback fab ~tenant:2 ~nic:"nic0" () in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let busy = Rdma.intra_host_share fab ~nic:"nic0" ~target:"dimm0.0.0" in
        Alcotest.(check bool) "grows" true (busy > idle);
        Rdma.stop_loopback lb);
  ]

(* {1 Storage} *)

let storage_tests =
  [
    tc "ops complete with plausible latencies" (fun () ->
        let _, sim, fab = make_host () in
        let st = Storage.start fab (Storage.default_config ~tenant:1 ~ssd:"ssd0" ~target:"dimm0.0.0") in
        E.Sim.run ~until:(U.Units.ms 10.0) sim;
        Storage.stop st;
        Alcotest.(check bool) "ops" true (Storage.completed_ops st > 50);
        Alcotest.(check bool) "bytes" true (Storage.bytes_moved st > 1e6);
        let lat = Storage.op_latencies st in
        Alcotest.(check bool) "latency positive" true (U.Sketch.percentile lat 0.5 > 0.0));
    tc "read_fraction 0 means all writes" (fun () ->
        let _, sim, fab = make_host () in
        let config =
          {
            (Storage.default_config ~tenant:1 ~ssd:"ssd0" ~target:"dimm0.0.0") with
            Storage.read_fraction = 0.0;
            block = Traffic.Fixed 1e5;
          }
        in
        let st = Storage.start fab config in
        E.Sim.run ~until:(U.Units.ms 5.0) sim;
        Storage.stop st;
        (* writes go dimm -> ssd; no bytes should land in the ssd->dimm dir *)
        let l = T.Topology.link_named (E.Fabric.topology fab) "pciesw0" "ssd0" in
        let into_ssd = E.Fabric.tenant_link_bytes fab l.T.Link.id T.Link.Fwd ~tenant:1 in
        let from_ssd = E.Fabric.tenant_link_bytes fab l.T.Link.id T.Link.Rev ~tenant:1 in
        Alcotest.(check bool) "writes flowed" true (into_ssd > 0.0);
        Alcotest.(check (float 1.0)) "no reads" 0.0 from_ssd);
    tc "start refuses a NaN or out-of-range field, naming it" (fun () ->
        let _, _, fab = make_host () in
        let base = Storage.default_config ~tenant:1 ~ssd:"ssd0" ~target:"dimm0.0.0" in
        Alcotest.check_raises "iops" (Invalid_argument "Storage.start: iops must be > 0 (got nan)")
          (fun () -> ignore (Storage.start fab { base with Storage.iops = nan }));
        Alcotest.check_raises "read_fraction"
          (Invalid_argument "Storage.start: read_fraction must be in [0, 1] (got 1.5)") (fun () ->
            ignore (Storage.start fab { base with Storage.read_fraction = 1.5 }));
        Alcotest.check_raises "read_fraction nan"
          (Invalid_argument "Storage.start: read_fraction must be in [0, 1] (got nan)") (fun () ->
            ignore (Storage.start fab { base with Storage.read_fraction = nan })));
  ]

(* {1 Allreduce} *)

let allreduce_tests =
  [
    tc "completes the configured iterations" (fun () ->
        let _, sim, fab = make_host () in
        let ar =
          Allreduce.start fab
            {
              Allreduce.tenant = 1;
              ring = [ "gpu0"; "gpu1" ];
              data_bytes = U.Units.mib 16.0;
              iterations = 3;
            }
        in
        E.Sim.run sim;
        Alcotest.(check int) "iterations" 3 (Allreduce.iterations_done ar);
        Alcotest.(check bool) "stopped" false (Allreduce.running ar);
        Alcotest.(check bool) "bandwidth computed" true
          (Allreduce.algorithmic_bandwidth ar > 0.0));
    tc "iteration time matches the ring-step arithmetic" (fun () ->
        (* 2 GPUs: 2 steps of 8 MiB chunks; cross-socket path bottleneck
           is the inter-socket link at 40 GB/s shared by both directions
           independently, so each step is ~chunk/pcie_eff *)
        let _, sim, fab = make_host () in
        let ar =
          Allreduce.start fab
            {
              Allreduce.tenant = 1;
              ring = [ "gpu0"; "gpu1" ];
              data_bytes = U.Units.mib 16.0;
              iterations = 1;
            }
        in
        E.Sim.run sim;
        let med = U.Sketch.percentile (Allreduce.iteration_times ar) 0.5 in
        (* chunk 8 MiB at ~28.6 GB/s effective = ~293 us per step, 2 steps *)
        Alcotest.(check bool) "order of magnitude" true
          (med > U.Units.us 400.0 && med < U.Units.ms 2.0));
    tc "rejects rings shorter than 2" (fun () ->
        let _, _, fab = make_host () in
        Alcotest.check_raises "short" (Invalid_argument "Allreduce: ring needs >= 2 devices")
          (fun () ->
            ignore
              (Allreduce.start fab
                 { Allreduce.tenant = 1; ring = [ "gpu0" ]; data_bytes = 1.0; iterations = 1 })));
    tc "optimize_ring minimizes cost and keeps the anchor" (fun () ->
        let topo = T.Builder.dgx_like () in
        let bad = [ "gpu0"; "gpu4"; "gpu1"; "gpu5"; "gpu2"; "gpu6"; "gpu3"; "gpu7" ] in
        let best = Allreduce.optimize_ring topo bad in
        Alcotest.(check string) "anchor" "gpu0" (List.hd best);
        Alcotest.(check bool) "improves" true
          (Allreduce.ring_cost topo best < Allreduce.ring_cost topo bad);
        (* the optimum crosses sockets exactly twice: cost within 2x of
           an ideal grouped ring *)
        let grouped = [ "gpu0"; "gpu1"; "gpu2"; "gpu3"; "gpu4"; "gpu5"; "gpu6"; "gpu7" ] in
        Alcotest.(check bool) "as good as grouped" true
          (Allreduce.ring_cost topo best <= Allreduce.ring_cost topo grouped +. 1e-9));
    tc "stop interrupts mid-iteration" (fun () ->
        let _, sim, fab = make_host () in
        let ar =
          Allreduce.start fab
            {
              Allreduce.tenant = 1;
              ring = [ "gpu0"; "gpu1" ];
              data_bytes = U.Units.mib 256.0;
              iterations = 100;
            }
        in
        E.Sim.run ~until:(U.Units.ms 2.0) sim;
        Allreduce.stop ar;
        let at_stop = Allreduce.iterations_done ar in
        E.Sim.run sim;
        Alcotest.(check int) "frozen" at_stop (Allreduce.iterations_done ar);
        Alcotest.(check int) "no leaked flows" 0 (E.Fabric.flow_count fab));
    tc "start refuses a NaN or out-of-range field, naming it" (fun () ->
        let _, _, fab = make_host () in
        let base =
          { Allreduce.tenant = 1; ring = [ "gpu0"; "gpu1" ]; data_bytes = 1e6; iterations = 1 }
        in
        Alcotest.check_raises "data_bytes"
          (Invalid_argument "Allreduce.start: data_bytes must be > 0 (got nan)") (fun () ->
            ignore (Allreduce.start fab { base with Allreduce.data_bytes = nan }));
        Alcotest.check_raises "iterations"
          (Invalid_argument "Allreduce.start: iterations must be >= 1 (got 0)") (fun () ->
            ignore (Allreduce.start fab { base with Allreduce.iterations = 0 })));
  ]

(* {1 Device names} *)

(* A one-socket host whose CPU socket is named "cpu0", not "socket0". *)
let cpu0_host () =
  let topo = T.Topology.create ~name:"cpu0-host" () in
  let add name kind = T.Topology.add_device topo ~name ~kind ~socket:0 in
  let cpu = add "cpu0" (T.Device.Cpu_socket { cores = 8 }) in
  let mc = add "mc0.0" (T.Device.Memory_controller { channels = 1 }) in
  let dimm = add "dimm0.0.0" (T.Device.Dimm { channel = 0 }) in
  let link kind (a : T.Device.t) (b : T.Device.t) =
    ignore
      (T.Topology.add_link topo ~kind ~a:a.T.Device.id ~b:b.T.Device.id
         ~capacity:(U.Units.gbytes_per_s 50.0) ~base_latency:40.0)
  in
  link T.Link.Intra_socket cpu mc;
  link T.Link.Memory_channel mc dimm;
  ignore (T.Builder.add_root_complex topo ~socket:cpu);
  let rp = T.Builder.add_root_port topo ~socket:0 ~port:0 in
  let nic = add "nic0" (T.Device.Nic { inter_host_gbps = 100.0 }) in
  T.Builder.attach_pcie topo ~parent:rp.T.Device.id ~child:nic.T.Device.id ();
  T.Builder.link_inter_host topo ~nic ~gbps:100.0;
  let sim = E.Sim.create () in
  (topo, sim, E.Fabric.create sim topo)

let names_tests =
  [
    tc "an unknown device is refused as \"no device NAME\" by every workload and probe"
      (fun () ->
        let _, _, fab = make_host () in
        let refused name f =
          Alcotest.check_raises name (Invalid_argument ("no device " ^ name)) f
        in
        refused "nicX" (fun () ->
            ignore (Kvstore.start fab (Kvstore.default_config ~tenant:1 ~nic:"nicX")));
        refused "ssdX" (fun () ->
            ignore
              (Storage.start fab (Storage.default_config ~tenant:1 ~ssd:"ssdX" ~target:"socket0")));
        refused "gpuX" (fun () ->
            ignore
              (Mltrain.start fab
                 (Mltrain.default_config ~tenant:1 ~gpu:"gpuX" ~data_source:"dimm0.0.0")));
        refused "dimmX" (fun () ->
            ignore (Rdma.start_loopback fab ~tenant:1 ~nic:"nic0" ~target:"dimmX" ()));
        refused "gpuX" (fun () ->
            ignore
              (Allreduce.start fab
                 {
                   Allreduce.tenant = 1;
                   ring = [ "gpu0"; "gpuX" ];
                   data_bytes = 1e6;
                   iterations = 1;
                 }));
        let module D = Ihnet_monitor.Diagnostics in
        refused "gpuX" (fun () -> ignore (D.trace fab ~src:"gpuX" ~dst:"nic0"));
        refused "nicX" (fun () -> ignore (D.ping fab ~src:"socket0" ~dst:"nicX" ()));
        (* ddio-thrash writes through nic1, which the minimal host lacks *)
        let sim = E.Sim.create () in
        let small = E.Fabric.create sim (T.Builder.minimal ()) in
        refused "nic1" (fun () -> ignore ((Option.get (Scenario.find "ddio-thrash")) small)));
    tc "a device's home socket is found by socket index, not by name" (fun () ->
        let topo, sim, fab = cpu0_host () in
        Alcotest.(check bool) "valid" true (Result.is_ok (T.Topology.validate topo));
        let kv = Kvstore.start fab (Kvstore.default_config ~tenant:1 ~nic:"nic0") in
        let lb = Rdma.start_loopback fab ~tenant:2 ~nic:"nic0" () in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let llc_dsts =
          List.filter_map
            (fun (f : E.Flow.t) ->
              if f.E.Flow.llc_target then
                Some (T.Topology.device topo f.E.Flow.path.T.Path.dst).T.Device.name
              else None)
            (E.Fabric.active_flows fab)
        in
        (* the store's requests and the loopback's writes *)
        Alcotest.(check (list string)) "LLC writes land in cpu0" [ "cpu0"; "cpu0" ] llc_dsts;
        Alcotest.(check bool) "kv serves requests" true (Kvstore.achieved_rate kv > 0.0);
        Alcotest.(check bool) "loopback moves bytes" true (Rdma.loopback_rate lb > 0.0);
        let mgr = Ihnet_manager.Manager.create fab () in
        match
          Ihnet_manager.Manager.submit mgr
            (Ihnet_manager.Intent.hose ~tenant:3 ~endpoint:"nic0" ~to_host:1e9 ~from_host:1e9)
        with
        | Ok placements -> Alcotest.(check int) "hose up and down" 2 (List.length placements)
        | Error e -> Alcotest.fail (Ihnet_manager.Manager.error_to_string e));
  ]

let suites =
  [
    ("workload.tenant", tenant_tests);
    ("workload.traffic", traffic_tests);
    ("workload.kvstore", kvstore_tests);
    ("workload.mltrain", mltrain_tests);
    ("workload.rdma", rdma_tests);
    ("workload.storage", storage_tests);
    ("workload.allreduce", allreduce_tests);
    ("workload.names", names_tests);
  ]
