(* E3 — §2, citing Collie [31]: "an RDMA loopback traffic can exhaust
   the PCIe bandwidth and causes the application to suffer from PCIe
   congestion".

   Victim: an inbound RDMA stream ext -> nic0 -> memory. Aggressor: a
   loopback on the same NIC. We report the victim's throughput and
   latency with and without the aggressor. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
open Common

let victim_path host =
  let topo = Ihnet.Host.topology host in
  T.Path.concat (T.Routing.route topo "ext" "nic0") (T.Routing.route topo "nic0" "socket0")

let run () =
  let host = fresh_host () in
  let fab = Ihnet.Host.fabric host in
  let path = victim_path host in
  (* the victim is an application with a fixed offered load (20 GB/s of
     inbound RDMA), not an elastic sink — so its latency reading is not
     polluted by saturating its own path *)
  let victim =
    E.Fabric.start_flow fab ~tenant:1 ~demand:20e9 ~llc_target:true ~path ~size:E.Flow.Unbounded ()
  in
  Ihnet.Host.run_for host (U.Units.ms 2.0);
  let rate_alone = victim.E.Flow.rate in
  let lat_alone = E.Fabric.path_latency fab ~payload_bytes:512 path in
  let lb = W.Rdma.start_loopback fab ~tenant:2 ~nic:"nic0" () in
  Ihnet.Host.run_for host (U.Units.ms 2.0);
  let rate_busy = victim.E.Flow.rate in
  let lat_busy = E.Fabric.path_latency fab ~payload_bytes:512 path in
  let agg_rate = W.Rdma.loopback_rate lb in
  W.Rdma.stop_loopback lb;
  Ihnet.Host.run_for host (U.Units.ms 1.0);
  let rate_recovered = victim.E.Flow.rate in
  let lat_recovered = E.Fabric.path_latency fab ~payload_bytes:512 path in
  E.Fabric.stop_flow fab victim;
  let table =
    U.Table.create ~title:"E3: RDMA loopback exhausting PCIe bandwidth"
      ~columns:[ "phase"; "victim throughput"; "victim path latency"; "aggressor rate" ]
  in
  let row phase rate lat agg =
    U.Table.add_row table
      [
        phase;
        Printf.sprintf "%.1f GB/s" (gb rate);
        Format.asprintf "%a" U.Units.pp_time lat;
        (if agg = 0.0 then "-" else Printf.sprintf "%.1f GB/s" (gb agg));
      ]
  in
  row "victim alone (20 GB/s offered)" rate_alone lat_alone 0.0;
  row "with loopback aggressor" rate_busy lat_busy agg_rate;
  row "aggressor stopped" rate_recovered lat_recovered 0.0;
  let drop = 1.0 -. (rate_busy /. rate_alone) in
  let ok = drop > 0.2 && lat_busy > lat_alone *. 2.0 && rate_recovered > rate_alone *. 0.95 in
  {
    id = "E3";
    title = "RDMA loopback exhausts PCIe bandwidth";
    claim = "loopback traffic can exhaust PCIe bandwidth; co-located apps suffer PCIe congestion";
    tables = [ table ];
    verdict =
      Printf.sprintf "victim lost %.0f%% throughput and latency rose %.1fx under loopback — %s"
        (drop *. 100.0) (lat_busy /. lat_alone)
        (if ok then "matches the paper's claim" else "MISMATCH");
  }
