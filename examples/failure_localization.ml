(* The paper's §3.1 motivating case, live: a PCIe switch silently
   degrades — no error counter fires, throughput counters look normal —
   and the heartbeat mesh catches and localizes it.

   Run with: dune exec examples/failure_localization.exe *)

open Ihnet
module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module Mon = Ihnet_monitor

let () =
  let host = Host.create Host.Two_socket in
  let fab = Host.fabric host in
  let topo = Host.topology host in

  (* background traffic so the host looks alive *)
  let path = T.Routing.route topo "nic0" "socket0" in
  ignore
    (E.Fabric.start_flow fab ~tenant:1 ~demand:10e9 ~llc_target:true ~path ~size:E.Flow.Unbounded
       ());

  print_endline "starting heartbeat mesh (1 ms rounds, all endpoints)";
  let hb = Host.start_heartbeats host () in
  Host.run_for host (U.Units.ms 10.0);
  Printf.printf "after 10 ms: %d rounds, %d failing pairs\n" (Mon.Heartbeat.rounds hb)
    (List.length (Mon.Heartbeat.failing_pairs hb));

  (* inject: the switch's upstream link silently adds 5 us per crossing *)
  let bad = T.Topology.link_named topo "rp0.0" "pciesw0" in
  Format.printf "\n[fault injected at t=%a: +5 us on the %s link — silently]@.@."
    U.Units.pp_time (Host.now host)
    (T.Link.kind_label bad.T.Link.kind);
  E.Fabric.inject_fault fab bad.T.Link.id
    { E.Fault.capacity_factor = 1.0; extra_latency = U.Units.us 5.0; loss_prob = 0.0 };

  Host.run_for host (U.Units.ms 10.0);
  (match Mon.Heartbeat.first_detection hb with
  | Some at -> Format.printf "heartbeats detected the anomaly at t=%a@." U.Units.pp_time at
  | None -> print_endline "heartbeats saw nothing (unexpected)");
  Printf.printf "failing probe pairs this round: %d\n"
    (List.length (Mon.Heartbeat.failing_pairs hb));

  print_endline "\nlocalization (boolean tomography over probe paths):";
  List.iteri
    (fun i (s : Mon.Heartbeat.suspect) ->
      let l = T.Topology.link topo s.Mon.Heartbeat.link in
      let a = (T.Topology.device topo l.T.Link.a).T.Device.name in
      let b = (T.Topology.device topo l.T.Link.b).T.Device.name in
      Printf.printf "  #%d  link %s-%s  covers %d bad paths (score %.2f)%s\n" (i + 1) a b
        s.Mon.Heartbeat.bad_paths_covered s.Mon.Heartbeat.score
        (if s.Mon.Heartbeat.link = bad.T.Link.id then "   <- the injected fault" else ""))
    (Mon.Heartbeat.localize hb);

  (* the operator confirms with ihtrace *)
  print_endline "\noperator confirms with ihtrace nic0 -> socket0:";
  List.iter
    (fun (h : Mon.Diagnostics.trace_hop) ->
      Format.printf "  -> %-10s base %a now %a %s@." h.Mon.Diagnostics.hop_device
        U.Units.pp_time h.Mon.Diagnostics.base_latency U.Units.pp_time
        h.Mon.Diagnostics.loaded_latency
        (if h.Mon.Diagnostics.loaded_latency > 10.0 *. h.Mon.Diagnostics.base_latency then
           "<- anomalous"
         else ""))
    (Host.trace host ~src:"nic0" ~dst:"socket0");
  Mon.Heartbeat.stop hb
