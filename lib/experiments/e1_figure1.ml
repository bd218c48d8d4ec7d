(* E1 — reproduce Figure 1's capacity / basic-latency table.

   For each link class we drive an elastic probe across a representative
   link (ihperf), read the wire rate the link sustains, and take the
   zero-load latency from ihtrace. Paper ranges are from Figure 1. *)

module T = Ihnet_topology
module E = Ihnet_engine
module U = Ihnet_util
module Mon = Ihnet_monitor
open Common

type row = {
  cls : int;
  label : string;
  probe : string * string; (* src dev, dst dev for the elastic probe *)
  watch : string * string; (* link endpoints whose wire rate we read *)
  paper_cap : string;
  cap_lo : float; (* acceptance band, bytes/s wire *)
  cap_hi : float;
  paper_lat : string;
  lat_lo : float;
  lat_hi : float;
}

let rows =
  [
    {
      cls = 1;
      label = "inter-socket connect";
      probe = ("socket0", "socket1");
      watch = ("socket0", "socket1");
      paper_cap = "20-72 GB/s";
      cap_lo = 20e9;
      cap_hi = 72e9;
      paper_lat = "130-220 ns";
      lat_lo = 130.0;
      lat_hi = 220.0;
    }
  ]

(* Class 2 (intra-socket / memory) is an aggregate: all channels of one
   socket driven in parallel. Handled separately below. *)

let measure_link_rate host (a, b) =
  let link = T.Topology.link_named (Ihnet.Host.topology host) a b in
  let fab = Ihnet.Host.fabric host in
  Float.max
    (E.Fabric.link_rate fab link.T.Link.id T.Link.Fwd)
    (E.Fabric.link_rate fab link.T.Link.id T.Link.Rev)

let probe_and_measure host (src, dst) watch =
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let path = T.Routing.route topo src dst in
  let flow =
    E.Fabric.start_flow fab ~tenant:1 ~cls:E.Flow.Probe ~path ~size:E.Flow.Unbounded ()
  in
  Ihnet.Host.run_for host (U.Units.ms 1.0);
  let rate = measure_link_rate host watch in
  E.Fabric.stop_flow fab flow;
  rate

let base_latency_of host (a, b) =
  (T.Topology.link_named (Ihnet.Host.topology host) a b).T.Link.base_latency

let memory_aggregate host =
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let dimms =
    T.Topology.find_devices topo (fun d ->
        (match d.T.Device.kind with T.Device.Dimm _ -> true | _ -> false)
        && d.T.Device.socket = 0)
  in
  let flows =
    List.map
      (fun (d : T.Device.t) ->
        let path = T.Routing.route topo "socket0" d.T.Device.name in
        E.Fabric.start_flow fab ~tenant:1 ~cls:E.Flow.Probe ~path ~size:E.Flow.Unbounded ())
      dimms
  in
  Ihnet.Host.run_for host (U.Units.ms 1.0);
  let total = List.fold_left (fun acc (f : E.Flow.t) -> acc +. f.E.Flow.rate) 0.0 flows in
  List.iter (E.Fabric.stop_flow fab) flows;
  total

let run () =
  let host = fresh_host () in
  let table =
    U.Table.create ~title:"E1 / Figure 1: capacity and basic latency per link class"
      ~columns:
        [ "class"; "link"; "paper capacity"; "measured"; "paper latency"; "measured"; "ok" ]
  in
  let ok = ref true in
  let add_row ~cls ~label ~cap ~(band : float * float) ~lat ~(lat_band : float * float)
      ~paper_cap ~paper_lat =
    let cap_lo, cap_hi = band and lat_lo, lat_hi = lat_band in
    let fits = cap >= cap_lo && cap <= cap_hi && lat >= lat_lo && lat <= lat_hi in
    if not fits then ok := false;
    U.Table.add_row table
      [
        Printf.sprintf "(%d)" cls;
        label;
        paper_cap;
        Printf.sprintf "%.1f GB/s" (gb cap);
        paper_lat;
        Printf.sprintf "%.0f ns" lat;
        (if fits then "yes" else "NO");
      ]
  in
  (* class 1 *)
  List.iter
    (fun r ->
      let cap = probe_and_measure host r.probe r.watch in
      let lat = base_latency_of host r.watch in
      add_row ~cls:r.cls ~label:r.label ~cap ~band:(r.cap_lo, r.cap_hi) ~lat
        ~lat_band:(r.lat_lo, r.lat_hi) ~paper_cap:r.paper_cap ~paper_lat:r.paper_lat)
    rows;
  (* class 2: aggregate of one socket's memory system; latency of one
     mesh+channel traversal *)
  let cap2 = memory_aggregate host in
  let lat2 =
    base_latency_of host ("socket0", "mc0.0") +. base_latency_of host ("mc0.0", "dimm0.0.0")
  in
  add_row ~cls:2 ~label:"intra-socket connect (memory)" ~cap:cap2 ~band:(100e9, 200e9) ~lat:lat2
    ~lat_band:(2.0, 110.0) ~paper_cap:"100-200 GB/s" ~paper_lat:"2-110 ns";
  (* class 3: switch upstream x16 *)
  let cap3 = probe_and_measure host ("nic0", "socket0") ("rp0.0", "pciesw0") in
  let lat3 = base_latency_of host ("rp0.0", "pciesw0") in
  add_row ~cls:3 ~label:"pcie switch upstream x16" ~cap:cap3 ~band:(U.Units.gbps 220.0, U.Units.gbps 260.0)
    ~lat:lat3 ~lat_band:(30.0, 120.0) ~paper_cap:"~256 Gbps" ~paper_lat:"30-120 ns";
  (* class 4: switch downstream x16 *)
  let cap4 = probe_and_measure host ("gpu0", "ssd0") ("pciesw0", "gpu0") in
  let lat4 = base_latency_of host ("pciesw0", "gpu0") in
  add_row ~cls:4 ~label:"pcie switch downstream x16" ~cap:cap4
    ~band:(U.Units.gbps 220.0, U.Units.gbps 260.0) ~lat:lat4 ~lat_band:(30.0, 120.0)
    ~paper_cap:"~256 Gbps" ~paper_lat:"30-120 ns";
  (* class 5: inter-host (probe from gpu0 so the route exits via nic0,
     the NIC under the same switch) *)
  let cap5 = probe_and_measure host ("gpu0", "ext") ("nic0", "ext") in
  let lat5 = base_latency_of host ("nic0", "ext") in
  add_row ~cls:5 ~label:"inter-host network" ~cap:cap5
    ~band:(U.Units.gbps 180.0, U.Units.gbps 210.0) ~lat:lat5 ~lat_band:(0.0, 2000.0)
    ~paper_cap:"~200 Gbps" ~paper_lat:"<2 us";
  {
    id = "E1";
    title = "Figure 1 link classes";
    claim =
      "capacity/latency of link classes (1)-(5): 20-72 GB/s @130-220ns, 100-200 GB/s @2-110ns, \
       ~256 Gbps @30-120ns (x2), ~200 Gbps @<2us";
    tables = [ table ];
    verdict =
      (if !ok then "all five classes measured inside the paper's ranges"
       else "MISMATCH: some class fell outside the paper's range");
  }
