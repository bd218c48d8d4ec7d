(* E14 — §3.2 "topology-aware resource scheduler" + §4 (BytePS [31]):
   "schedules the machine learning workload to reduce PCIe contention
   and improve communication among GPU workers."

   An 8-GPU ring allreduce on the DGX-like host. A socket-alternating
   ring crosses the single inter-socket link on most edges and
   congests it; a topology-aware ring (minimizing path cost) crosses
   it exactly twice. Same data, same GPUs, ~2-3x the allreduce
   bandwidth. *)

module T = Ihnet_topology
module E = Ihnet_engine
module U = Ihnet_util
module W = Ihnet_workload
open Common

let gpus = List.init 8 (fun i -> Printf.sprintf "gpu%d" i)

(* worst case: alternate sockets on every ring edge *)
let alternating = [ "gpu0"; "gpu4"; "gpu1"; "gpu5"; "gpu2"; "gpu6"; "gpu3"; "gpu7" ]

let run_ring host ring =
  let fab = Ihnet.Host.fabric host in
  let ar =
    W.Allreduce.start fab
      { W.Allreduce.tenant = 1; ring; data_bytes = U.Units.mib 256.0; iterations = 4 }
  in
  Ihnet.Host.run_until_idle host;
  let med = U.Sketch.percentile (W.Allreduce.iteration_times ar) 0.5 in
  let bw = W.Allreduce.algorithmic_bandwidth ar in
  (med, bw)

let inter_socket_crossings topo ring =
  let ids = List.map (fun name -> (T.Topology.device_named topo name).T.Device.id) ring in
  let n = List.length ids in
  List.length
    (List.filteri
       (fun i _ ->
         let a = List.nth ids i and b = List.nth ids ((i + 1) mod n) in
         match T.Routing.shortest_path topo a b with
         | Some p ->
           List.exists
             (fun (l : T.Link.t) -> l.T.Link.kind = T.Link.Inter_socket)
             (T.Path.links p)
         | None -> false)
       ids)

let run () =
  let table =
    U.Table.create ~title:"E14: ring allreduce placement on the DGX-like host (8 GPUs, 256 MiB)"
      ~columns:
        [ "ring order"; "inter-socket crossings"; "iteration (median)"; "allreduce bandwidth" ]
  in
  let topo_probe = T.Builder.dgx_like () in
  let optimized = W.Allreduce.optimize_ring topo_probe gpus in
  let measure label ring =
    let host = Ihnet.Host.create Ihnet.Host.Dgx in
    let crossings = inter_socket_crossings (Ihnet.Host.topology host) ring in
    let med, bw = run_ring host ring in
    U.Table.add_row table
      [
        label;
        string_of_int crossings;
        Format.asprintf "%a" U.Units.pp_time med;
        Format.asprintf "%a" U.Units.pp_rate bw;
      ];
    (med, bw, crossings)
  in
  let _, bw_alt, cross_alt = measure "socket-alternating (worst)" alternating in
  let _, bw_naive, _ = measure "naive (gpu0..gpu7)" gpus in
  let _, bw_opt, cross_opt = measure "topology-aware (optimized)" optimized in
  let ok = cross_opt = 2 && cross_alt = 8 && bw_opt > bw_alt *. 1.5 && bw_opt >= bw_naive *. 0.99 in
  {
    id = "E14";
    title = "topology-aware collective placement";
    claim =
      "a topology-aware scheduler that places communication against the host topology \
       reduces contention and improves GPU communication (§3.2 scheduler, §4 BytePS)";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "optimized ring crosses the inter-socket link %d times vs %d and delivers %s vs %s \
         allreduce bandwidth — %s"
        cross_opt cross_alt
        (Format.asprintf "%a" U.Units.pp_rate bw_opt)
        (Format.asprintf "%a" U.Units.pp_rate bw_alt)
        (if ok then "matches the topology-aware scheduling claim" else "MISMATCH");
  }
