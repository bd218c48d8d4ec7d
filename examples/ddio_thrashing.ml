(* DDIO cache thrashing (§2): inbound DMA from one fast NIC fits the
   LLC's I/O ways; add a second NIC and the ways thrash, silently
   multiplying memory-bus traffic. Toggling DDIO off shows the
   trade-off the configuration knob controls.

   Run with: dune exec examples/ddio_thrashing.exe *)

open Ihnet
module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util

let show host label =
  let fab = Host.fabric host in
  Format.printf "%-24s ddio-write %a hit %3.0f%%  induced mem traffic %a@." label
    U.Units.pp_rate
    (E.Fabric.ddio_write_rate fab ~socket:0)
    (E.Fabric.ddio_hit_rate fab ~socket:0 *. 100.0)
    U.Units.pp_rate
    (E.Fabric.ddio_spill_rate fab ~socket:0)

let writer host nic =
  let path = T.Routing.route (Host.topology host) nic "socket0" in
  E.Fabric.start_flow (Host.fabric host) ~tenant:1 ~llc_target:true ~path ~size:E.Flow.Unbounded
    ()

let () =
  let host = Host.create Host.Two_socket in
  print_endline "DDIO on (default: 2 of 11 LLC ways for I/O):\n";
  let w1 = writer host "nic0" in
  Host.run_for host (U.Units.ms 1.0);
  show host "one NIC writing:";
  let w2 = writer host "nic1" in
  Host.run_for host (U.Units.ms 1.0);
  show host "two NICs writing:";
  E.Fabric.stop_flow (Host.fabric host) w1;
  E.Fabric.stop_flow (Host.fabric host) w2;

  print_endline "\nsame load with DDIO disabled:\n";
  let config = { T.Hostconfig.default with T.Hostconfig.ddio = T.Hostconfig.Ddio_off } in
  let host_off = Host.create ~config Host.Two_socket in
  ignore (writer host_off "nic0");
  ignore (writer host_off "nic1");
  Host.run_for host_off (U.Units.ms 1.0);
  show host_off "two NICs writing:";

  (* the misconfiguration checker knows this is a bad idea *)
  print_endline "\nconfiguration check on the DDIO-off host:";
  List.iter (Printf.printf "  finding: %s\n") (Host.check_configuration host_off)
