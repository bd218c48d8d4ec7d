(* Quickstart: build the Figure-1 server, look around with the
   diagnostic tools, run a workload, and ask for a guarantee.

   Run with: dune exec examples/quickstart.exe *)

open Ihnet
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module Mon = Ihnet_monitor
module R = Ihnet_manager

let () =
  (* 1. A host: the two-socket commodity server of the paper's Figure 1. *)
  let host = Host.create Host.Two_socket in
  Printf.printf "host: %s\n\n" (T.Topology.summary (Host.topology host));

  (* 2. Observability: the intra-host ping and traceroute. *)
  (match Host.ping host ~src:"nic0" ~dst:"dimm0.0.0" with
  | Some rtt -> Format.printf "ihping nic0 <-> dimm0.0.0: rtt %a@." U.Units.pp_time rtt
  | None -> print_endline "ihping: lost");
  print_endline "ihtrace ext -> dimm0.0.0:";
  List.iter
    (fun (h : Mon.Diagnostics.trace_hop) ->
      Format.printf "  -> %-12s %-16s base %a now %a@." h.Mon.Diagnostics.hop_device
        h.Mon.Diagnostics.link_kind U.Units.pp_time h.Mon.Diagnostics.base_latency
        U.Units.pp_time h.Mon.Diagnostics.loaded_latency)
    (Host.trace host ~src:"ext" ~dst:"dimm0.0.0");
  Format.printf "ihperf gpu0 -> ssd0: %a available@.@." U.Units.pp_rate
    (Host.bandwidth host ~src:"gpu0" ~dst:"ssd0");

  (* 3. A workload: a remote key-value store serving clients via nic0. *)
  let tenant = Host.add_tenant host ~name:"kv" in
  let kv =
    W.Kvstore.start (Host.fabric host)
      (W.Kvstore.default_config ~tenant:tenant.W.Tenant.id ~nic:"nic0")
  in
  Host.run_for host (U.Units.ms 20.0);
  let lat = W.Kvstore.latencies kv in
  Format.printf "kv store after 20 ms: %.0fk req/s, p50 %a, p99 %a@."
    (W.Kvstore.achieved_rate kv /. 1e3)
    U.Units.pp_time (U.Sketch.percentile lat 0.5)
    U.Units.pp_time (U.Sketch.percentile lat 0.99);

  (* 4. Manageability: ask the resource manager for an end-to-end
     guarantee; the arbiter shim protects the store automatically. *)
  (match
     Host.submit_intent host
       (R.Intent.pipe ~tenant:tenant.W.Tenant.id ~src:"ext" ~dst:"socket0"
          ~rate:(U.Units.gbps 4.0))
   with
  | Ok placements ->
    Format.printf "intent admitted: %d placement(s), %a guaranteed@."
      (List.length placements) U.Units.pp_rate
      (R.Manager.guaranteed_throughput (Option.get (Host.manager host))
         ~tenant:tenant.W.Tenant.id)
  | Error e -> Printf.printf "intent rejected: %s\n" (Manager.error_to_string e));
  Host.run_for host (U.Units.ms 10.0);

  (* 5. The tenant's virtualized view of the intra-host network. *)
  (match Host.manager host with
  | Some mgr ->
    let vnet = R.Manager.vnet mgr ~tenant:tenant.W.Tenant.id in
    Printf.printf "tenant vnet: %s\n" (T.Topology.summary vnet)
  | None -> ());
  W.Kvstore.stop kv;
  print_endline "\nquickstart done."
