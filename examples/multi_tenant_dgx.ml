(* A multi-tenant DGX-like box: four training tenants with hose
   guarantees, per-tenant virtual network views, and a live migration
   compatibility check against a smaller host (§3.2's virtualized
   abstraction).

   Run with: dune exec examples/multi_tenant_dgx.exe *)

open Ihnet
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module R = Ihnet_manager

let () =
  let host = Host.create Host.Dgx in
  Printf.printf "host: %s\n\n" (T.Topology.summary (Host.topology host));
  let mgr = Host.enable_manager host () in

  (* four tenants, one GPU pair each, hose guarantees at their NICs *)
  let tenants =
    List.map
      (fun i ->
        let t = Host.add_tenant host ~name:(Printf.sprintf "team%d" i) in
        let nic = Printf.sprintf "nic%d" (2 * i) in
        (match
           R.Manager.submit mgr
             (R.Intent.hose ~tenant:t.W.Tenant.id ~endpoint:nic ~to_host:(U.Units.gbps 50.0)
                ~from_host:(U.Units.gbps 50.0))
         with
        | Ok _ -> Printf.printf "tenant %s: hose 50/50 Gbps at %s admitted\n" t.W.Tenant.name nic
        | Error e ->
          Printf.printf "tenant %s: REJECTED (%s)\n" t.W.Tenant.name
            (Manager.error_to_string e));
        t)
      [ 0; 1; 2; 3 ]
  in

  (* everyone trains *)
  let trainers =
    List.mapi
      (fun i t ->
        W.Mltrain.start (Host.fabric host)
          {
            (W.Mltrain.default_config ~tenant:t.W.Tenant.id
               ~gpu:(Printf.sprintf "gpu%d" (2 * i))
               ~data_source:"dimm0.0.0") with
            W.Mltrain.batch_bytes = U.Units.mib 64.0;
            compute_time = U.Units.ms 2.0;
            sync = Some (Printf.sprintf "nic%d" (2 * i), U.Units.mib 16.0);
          })
      tenants
  in
  Host.run_for host (U.Units.ms 60.0);
  print_newline ();
  List.iteri
    (fun i tr ->
      let times = W.Mltrain.iteration_times tr in
      Format.printf "team%d: %d iterations, median %a@." i (W.Mltrain.iterations_done tr)
        U.Units.pp_time
        (U.Sketch.percentile times 0.5))
    trainers;

  (* each tenant's virtual view *)
  print_newline ();
  List.iter
    (fun (t : W.Tenant.t) ->
      let vnet = R.Manager.vnet mgr ~tenant:t.W.Tenant.id in
      Printf.printf "vnet of %s: %s\n" t.W.Tenant.name (T.Topology.summary vnet))
    tenants;

  (* can team0 migrate to the smaller Figure-1 server? *)
  let dst = T.Builder.two_socket_server () in
  let t0 = List.hd tenants in
  Printf.printf "\nmigration of %s to the two-socket host: %s\n" t0.W.Tenant.name
    (if
       R.Vnet.migration_compatible ~src:(Host.topology host) ~dst_host:dst
         ~placements:(R.Manager.placements mgr) ~tenant:t0.W.Tenant.id
     then "compatible"
     else "NOT compatible (device or capacity mismatch)");
  List.iter W.Mltrain.stop trainers
