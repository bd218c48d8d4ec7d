(* SLO guardrails: intents in, compliance report out — and what a
   silent hardware fault does to it. Combines the manager's SLO checker
   with the monitor's health report: the operator's daily view.

   Run with: dune exec examples/slo_guardrails.exe *)

open Ihnet
module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module Mon = Ihnet_monitor
module R = Ihnet_manager

let () =
  let host = Host.create Host.Two_socket in
  let fab = Host.fabric host in
  let mgr = Host.enable_manager host () in

  (* two tenants with guarantees; tenant 1 also carries a latency SLO *)
  let submit intent =
    match R.Manager.submit mgr intent with
    | Ok _ -> ()
    | Error e -> failwith ("intent rejected: " ^ Manager.error_to_string e)
  in
  submit
    {
      (R.Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:(U.Units.gbps 40.0)) with
      R.Intent.latency_bound = Some (U.Units.us 1.0);
    };
  submit (R.Intent.hose ~tenant:2 ~endpoint:"nic0" ~to_host:(U.Units.gbps 60.0) ~from_host:0.0);

  (* their traffic *)
  let topo = Host.topology host in
  ignore
    (E.Fabric.start_flow fab ~tenant:1 ~demand:(U.Units.gbps 30.0) ~llc_target:true
       ~path:(T.Routing.route topo "nic1" "socket0") ~size:E.Flow.Unbounded ());
  ignore
    (E.Fabric.start_flow fab ~tenant:2 ~demand:(U.Units.gbps 50.0) ~llc_target:true
       ~path:(T.Routing.route topo "nic0" "socket0") ~size:E.Flow.Unbounded ());
  Host.run_for host (U.Units.ms 5.0);

  print_endline "healthy fabric:";
  Format.printf "%a@." R.Slo.pp (R.Slo.check mgr);

  (* a silent fault on tenant 1's root-port link: +4 us, no counter *)
  let bad = T.Topology.link_named topo "rp0.1" "nic1" in
  Format.printf "[silent fault injected: +4 us on %s]@.@."
    (T.Link.kind_label bad.T.Link.kind);
  E.Fabric.inject_fault fab bad.T.Link.id
    { E.Fault.capacity_factor = 1.0; extra_latency = U.Units.us 4.0; loss_prob = 0.0 };
  Host.run_for host (U.Units.ms 5.0);

  print_endline "after the silent fault:";
  let report = R.Slo.check mgr in
  Format.printf "%a@." R.Slo.pp report;
  Printf.printf "tenant 1 compliant: %b, tenant 2 compliant: %b\n\n"
    (R.Slo.tenant_compliant report ~tenant:1)
    (R.Slo.tenant_compliant report ~tenant:2);

  (* the operator pulls a health report to see what the counters say *)
  print_endline "operator's health report (oracle counters):";
  let counter = Mon.Counter.create fab ~fidelity:Mon.Counter.Oracle in
  Format.printf "%a" Mon.Health.pp (Mon.Health.collect counter ~tenants:[ 1; 2 ] ())
