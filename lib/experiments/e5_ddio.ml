(* E5 — §2's DDIO thrashing: "due to the limited cache spaces and the
   high throughput direct write, these two devices can cause cache
   thrashing and the data are evicted from the cache before being
   consumed ... leads to more consumption of the intra-host network
   resources (e.g., memory bus bandwidth)".

   Sweep: one DDIO writer; two concurrent writers (nic0 + nic1, on
   different root ports so their aggregate exceeds the I/O ways'
   absorbing rate); and the two-writer case with DDIO disabled. We
   report LLC I/O-way hit rate and the induced memory-bus traffic. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
open Common

let writer host name =
  let topo = Ihnet.Host.topology host in
  let fab = Ihnet.Host.fabric host in
  let path = T.Routing.route topo name "socket0" in
  E.Fabric.start_flow fab ~tenant:1 ~llc_target:true ~path ~size:E.Flow.Unbounded ()

let mem_bus_rate host =
  (* wire rate on the socket0 <-> mc links, both directions *)
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  List.fold_left
    (fun acc mc ->
      let l = T.Topology.link_named topo "socket0" mc in
      acc
      +. E.Fabric.link_rate fab l.T.Link.id T.Link.Fwd
      +. E.Fabric.link_rate fab l.T.Link.id T.Link.Rev)
    0.0 [ "mc0.0"; "mc0.1" ]

let observe host writers =
  let fab = Ihnet.Host.fabric host in
  let flows = List.map (writer host) writers in
  Ihnet.Host.run_for host (U.Units.ms 1.0);
  let write_rate = List.fold_left (fun acc (f : E.Flow.t) -> acc +. f.E.Flow.rate) 0.0 flows in
  let hit = E.Fabric.ddio_hit_rate fab ~socket:0 in
  let spill = E.Fabric.ddio_spill_rate fab ~socket:0 in
  let mem = mem_bus_rate host in
  List.iter (E.Fabric.stop_flow fab) flows;
  Ihnet.Host.run_for host (U.Units.ms 0.5);
  (write_rate, hit, spill, mem)

let run () =
  let table =
    U.Table.create ~title:"E5: DDIO cache thrashing and induced memory-bus traffic"
      ~columns:
        [ "scenario"; "ddio"; "DMA write rate"; "LLC io-way hit"; "induced mem traffic"; "mem-bus rate" ]
  in
  let add label ddio (w, h, s, m) =
    U.Table.add_row table
      [
        label;
        ddio;
        Printf.sprintf "%.1f GB/s" (gb w);
        Printf.sprintf "%.0f%%" (h *. 100.0);
        Printf.sprintf "%.1f GB/s" (gb s);
        Printf.sprintf "%.1f GB/s" (gb m);
      ]
  in
  let host = fresh_host () in
  let one = observe host [ "nic0" ] in
  add "one 200G NIC writing" "on" one;
  let two = observe host [ "nic0"; "nic1" ] in
  add "two 200G NICs writing" "on" two;
  let off_config = { T.Hostconfig.default with T.Hostconfig.ddio = T.Hostconfig.Ddio_off } in
  let host_off = fresh_host ~config:off_config () in
  let off = observe host_off [ "nic0"; "nic1" ] in
  add "two 200G NICs writing" "off" off;
  let (_, h1, s1, _) = one and (_, h2, s2, _) = two and (_, _, s_off, _) = off in
  let ok = h1 > 0.95 && h2 < h1 -. 0.2 && s2 > s1 +. 1e9 in
  {
    id = "E5";
    title = "DDIO thrashing converts I/O writes into memory-bus traffic";
    claim =
      "one high-throughput device fits the dedicated LLC ways; two thrash them, and the \
       evicted data costs extra memory-bus bandwidth (write-back + re-read)";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "hit rate %.0f%% -> %.0f%% going from one to two writers; induced traffic %.1f -> %.1f \
         GB/s (ddio-off baseline: %.1f GB/s one-way) — %s"
        (h1 *. 100.0) (h2 *. 100.0) (gb s1) (gb s2) (gb s_off)
        (if ok then "matches the paper's claim" else "MISMATCH");
  }
