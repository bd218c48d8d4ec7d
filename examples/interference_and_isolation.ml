(* The paper's §2 story, live: a latency-sensitive KV store and a
   bandwidth-hungry ML trainer share a PCIe root port. The monitor's
   root-cause analysis names the aggressor; an intent then isolates the
   victim.

   Run with: dune exec examples/interference_and_isolation.exe *)

open Ihnet
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module Mon = Ihnet_monitor
module R = Ihnet_manager

(* report then reset, so each phase's percentiles are its own *)
let kv_report label kv =
  let lat = W.Kvstore.latencies kv in
  Format.printf "%-28s p50 %a p99 %a (%.0fk req/s)@." label U.Units.pp_time
    (U.Sketch.percentile lat 0.5)
    U.Units.pp_time
    (U.Sketch.percentile lat 0.99)
    (W.Kvstore.achieved_rate kv /. 1e3);
  U.Sketch.clear lat

let () =
  let host = Host.create Host.Two_socket in
  let fab = Host.fabric host in
  let kv_tenant = (Host.add_tenant host ~name:"kv").W.Tenant.id in
  let ml_tenant = (Host.add_tenant host ~name:"ml").W.Tenant.id in

  print_endline "phase 1: the kv store alone";
  let kv = W.Kvstore.start fab (W.Kvstore.default_config ~tenant:kv_tenant ~nic:"nic0") in
  Host.run_for host (U.Units.ms 15.0);
  kv_report "  kv alone:" kv;

  print_endline "\nphase 2: an ML trainer starts on gpu0 (same root port)";
  let ml =
    W.Mltrain.start fab
      {
        (W.Mltrain.default_config ~tenant:ml_tenant ~gpu:"gpu0" ~data_source:"dimm0.0.0") with
        W.Mltrain.compute_time = 0.0;
        loader_streams = 3;
      }
  in
  let counter = Mon.Counter.create fab ~fidelity:Mon.Counter.Software in
  let before = Mon.Rootcause.snapshot counter ~tenants:[ kv_tenant; ml_tenant ] in
  Host.run_for host (U.Units.ms 15.0);
  kv_report "  kv under interference:" kv;

  print_endline "\nphase 3: the operator debugs with root-cause analysis";
  let after = Mon.Rootcause.snapshot counter ~tenants:[ kv_tenant; ml_tenant ] in
  let topo = Host.topology host in
  let request_path =
    T.Path.concat (T.Routing.route topo "ext" "nic0") (T.Routing.route topo "nic0" "socket0")
  in
  (* diagnose the full round trip: the response direction matters too *)
  let round_trip =
    {
      request_path with
      T.Path.hops = request_path.T.Path.hops @ (T.Path.reverse request_path).T.Path.hops;
    }
  in
  let culprits = Mon.Rootcause.diagnose counter ~before ~after ~victim_path:round_trip in
  (match culprits with
  | top :: _ ->
    let link = T.Topology.link topo top.Mon.Rootcause.link in
    Format.printf "  most congested hop: %s (%.0f%% utilized)@."
      (T.Link.kind_label link.T.Link.kind)
      (top.Mon.Rootcause.utilization *. 100.0);
    List.iter
      (fun (tn, rate) ->
        Format.printf "    tenant %-3s moves %a@."
          (if tn = -1 then "ddio" else string_of_int tn)
          U.Units.pp_rate rate)
      top.Mon.Rootcause.contributors
  | [] -> print_endline "  no congestion found?!");
  (match Mon.Rootcause.top_aggressor culprits with
  | Some (tn, _) -> Printf.printf "  => aggressor is tenant %d (the ML trainer)\n" tn
  | None -> ());

  print_endline "\nphase 4: the kv tenant submits an intent; the arbiter isolates it";
  let mgr = Host.enable_manager host () in
  let intent =
    {
      (R.Intent.pipe ~tenant:kv_tenant ~src:"ext" ~dst:"socket0" ~rate:(U.Units.gbps 4.0)) with
      R.Intent.targets =
        [
          R.Intent.Pipe { src = "ext"; dst = "socket0"; rate = U.Units.gbps 4.0 };
          R.Intent.Pipe { src = "socket0"; dst = "ext"; rate = U.Units.gbps 4.0 };
        ];
    }
  in
  (match R.Manager.submit mgr intent with
  | Ok _ -> print_endline "  intent admitted"
  | Error e -> Printf.printf "  intent rejected: %s\n" (Manager.error_to_string e));
  Host.run_for host (U.Units.ms 15.0);
  kv_report "  kv under management:" kv;
  Printf.printf "  (ml trainer finished %d iterations meanwhile)\n"
    (W.Mltrain.iterations_done ml);
  W.Mltrain.stop ml;
  W.Kvstore.stop kv
