(* E13 — §2 on CXL (citing Sharma [49] and DirectCXL [21]):
   "Compute Express Link (CXL) exposes memory in devices as remote
   memory in a NUMA system, and it enables devices to directly access
   host local memory through a cache coherence interface. These
   features provide a more flexible memory model and reduce the
   overhead (e.g., with a latency of ~150ns from device to host
   memory)."

   We attach a CXL.mem expander below socket 0's root complex and
   compare a device's access to host DRAM over the coherent CXL fabric
   against the PCIe DMA path:

   - CXL access ≈ the one-way path latency (a coherent load/store
     completes without the DMA request/completion protocol);
   - a PCIe DMA read pays a full round trip (request TLP out,
     completion back) plus IOMMU translation.

   We also check the "remote memory in a NUMA system" framing: the CPU
   reaching the expander's media vs reaching the other socket's DRAM. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
open Common

(* DDR media latency behind the expander's controller (the device-side
   cost CXL.mem adds on top of fabric hops). *)
let media_latency = 60.0

let one_way fab topo a b =
  let path = T.Routing.route topo a b in
  (E.Fabric.path_latency fab path, path)

let run () =
  let topo = T.Builder.two_socket_with_cxl () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  let table =
    U.Table.create ~title:"E13: CXL vs PCIe access paths (idle host)"
      ~columns:[ "access"; "mechanism"; "latency"; "paper says" ]
  in
  (* 1. device -> host DRAM over CXL: one-way coherent store *)
  let cxl_to_dram, _ = one_way fab topo "cxl0" "dimm0.0.0" in
  U.Table.add_row table
    [
      "cxl0 -> host DRAM";
      "coherent CXL.mem store";
      Format.asprintf "%a" U.Units.pp_time cxl_to_dram;
      "~150 ns";
    ];
  (* 2. the same reach over PCIe DMA: round trip + translation *)
  let nic_path_lat, _ = one_way fab topo "nic0" "dimm0.0.0" in
  let pcie_read = 2.0 *. nic_path_lat in
  U.Table.add_row table
    [
      "nic0 -> host DRAM (read)";
      "PCIe DMA round trip";
      Format.asprintf "%a" U.Units.pp_time pcie_read;
      "higher than CXL";
    ];
  (* 3. CPU -> CXL expander media: the remote-NUMA framing *)
  let cpu_to_cxl, _ = one_way fab topo "socket0" "cxl0" in
  let cpu_to_cxl = cpu_to_cxl +. media_latency in
  U.Table.add_row table
    [
      "socket0 -> cxl0 media";
      "CXL.mem load (remote NUMA)";
      Format.asprintf "%a" U.Units.pp_time cpu_to_cxl;
      "like a NUMA hop";
    ];
  (* 4. reference: CPU -> other socket's DRAM *)
  let cpu_remote_dram, _ = one_way fab topo "socket0" "dimm1.0.0" in
  U.Table.add_row table
    [
      "socket0 -> socket1 DRAM";
      "inter-socket NUMA access";
      Format.asprintf "%a" U.Units.pp_time cpu_remote_dram;
      "(reference)";
    ];
  (* 5. bandwidth: the expander's link feeds memory at PHY rate *)
  let bw = Ihnet_monitor.Diagnostics.perf_now fab ~src:"cxl0" ~dst:"dimm0.0.0" in
  U.Table.add_row table
    [
      "cxl0 -> host DRAM";
      "sustained bandwidth";
      Format.asprintf "%a" U.Units.pp_rate bw;
      "gen5 x8 PHY (~32 GB/s)";
    ];
  let ok =
    cxl_to_dram >= 130.0 && cxl_to_dram <= 170.0
    && pcie_read > 2.5 *. cxl_to_dram
    && Float.abs (cpu_to_cxl -. cpu_remote_dram) < 150.0
  in
  {
    id = "E13";
    title = "CXL reduces intra-host access overhead";
    claim =
      "CXL gives devices coherent access to host memory at ~150 ns and exposes device memory \
       as remote NUMA (§2, citing [49])";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "device->host-DRAM over CXL: %s (paper: ~150 ns); the PCIe DMA read path costs %s; \
         CPU->expander media (%s) sits in the same band as a NUMA hop (%s) — %s"
        (Format.asprintf "%a" U.Units.pp_time cxl_to_dram)
        (Format.asprintf "%a" U.Units.pp_time pcie_read)
        (Format.asprintf "%a" U.Units.pp_time cpu_to_cxl)
        (Format.asprintf "%a" U.Units.pp_time cpu_remote_dram)
        (if ok then "matches the paper's numbers" else "MISMATCH");
  }
