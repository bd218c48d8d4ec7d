(* E15 — §3.2: "The arbiter should dynamically adjust the allocation
   promptly when applications come and go to avoid interference and
   poor resource utilization."

   Tenants arrive as a Poisson process (mean every 2 ms), each asking
   for a 6 GB/s hose at a random NIC, running at its guarantee for an
   exponential lifetime (mean 10 ms), then leaving. The scheduler's
   headroom decides how much of each link is reservable. Sweep it:
   admit more (high headroom) and the fabric runs hotter — latency for
   everyone rises; admit less and capacity idles. The table is the
   capacity-planning trade-off an operator actually tunes. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module R = Ihnet_manager
open Common

let nics = [| "nic0"; "nic1"; "nic2" |]
let guarantee = 6e9
let duration = U.Units.ms 60.0

type outcome = {
  arrived : int;
  admitted : int;
  mean_probe_latency : float;
  violations : int;
}

let run_headroom headroom =
  let host = fresh_host ~seed:7 () in
  let fab = Ihnet.Host.fabric host in
  let sim = Ihnet.Host.sim host in
  let topo = Ihnet.Host.topology host in
  let mgr = R.Manager.create fab ~headroom () in
  R.Manager.start_shim mgr ~period:(U.Units.us 50.0);
  let rng = U.Rng.create 23 in
  let arrived = ref 0 and admitted = ref 0 and violations = ref 0 in
  let next_tenant = ref 1 in
  let probe_path =
    T.Path.concat
      (T.Routing.route topo "ext" "nic0")
      (T.Routing.route topo "nic0" "socket0")
  in
  let latencies = U.Stats.Online.create () in
  (* tenant arrivals *)
  let rec arrival _ =
    if E.Sim.now sim < duration then begin
      incr arrived;
      let tenant = !next_tenant in
      incr next_tenant;
      let nic = nics.(U.Rng.int rng (Array.length nics)) in
      (match
         R.Manager.submit mgr (R.Intent.hose ~tenant ~endpoint:nic ~to_host:guarantee ~from_host:0.0)
       with
      | Ok _ ->
        incr admitted;
        let path = T.Routing.route topo nic "socket0" in
        let flow =
          E.Fabric.start_flow fab ~tenant ~demand:guarantee ~llc_target:true ~path
            ~size:E.Flow.Unbounded ()
        in
        (* departure after an exponential lifetime *)
        E.Sim.schedule sim ~after:(U.Rng.exponential rng (U.Units.ms 10.0)) (fun _ ->
            (* check the guarantee held at departure *)
            if flow.E.Flow.state = E.Flow.Running && flow.E.Flow.rate < guarantee *. 0.98 then
              incr violations;
            E.Fabric.stop_flow fab flow;
            R.Manager.revoke mgr ~tenant)
      | Error _ -> ());
      E.Sim.schedule sim ~after:(U.Rng.exponential rng (U.Units.ms 2.0)) arrival
    end
  in
  E.Sim.schedule sim ~after:0.0 arrival;
  (* latency probe every 500 us *)
  E.Sim.every sim ~period:(U.Units.us 500.0) ~until:duration (fun _ ->
      U.Stats.Online.add latencies (E.Fabric.path_latency fab ~payload_bytes:512 probe_path));
  Ihnet.Host.run_for host duration;
  R.Manager.stop_shim mgr;
  {
    arrived = !arrived;
    admitted = !admitted;
    mean_probe_latency = U.Stats.Online.mean latencies;
    violations = !violations;
  }

let run () =
  let table =
    U.Table.create
      ~title:"E15: admission under tenant churn vs scheduler headroom (6 GB/s hoses, 60 ms)"
      ~columns:
        [ "headroom"; "arrived"; "admitted"; "admit %"; "mean probe latency"; "guarantee violations" ]
  in
  let outcomes =
    List.map
      (fun headroom ->
        let o = run_headroom headroom in
        U.Table.add_row table
          [
            Printf.sprintf "%.0f%%" (headroom *. 100.0);
            string_of_int o.arrived;
            string_of_int o.admitted;
            Printf.sprintf "%.0f%%" (100.0 *. float_of_int o.admitted /. float_of_int o.arrived);
            Format.asprintf "%a" U.Units.pp_time o.mean_probe_latency;
            string_of_int o.violations;
          ];
        (headroom, o))
      [ 0.5; 0.7; 0.9; 1.0 ]
  in
  let get h = List.assoc h outcomes in
  let low = get 0.5 and high = get 1.0 in
  let ok =
    high.admitted > low.admitted
    && high.mean_probe_latency > low.mean_probe_latency
    (* guarantees must hold wherever slack exists; at 100% headroom the
       scheduler has none left for protocol overheads, and violations
       become possible — which is the reason headroom exists *)
    && List.for_all (fun (h, o) -> h >= 1.0 || o.violations = 0) outcomes
  in
  {
    id = "E15";
    title = "admission vs headroom under churn";
    claim =
      "the arbiter adjusts as applications come and go; the reservable headroom trades \
       admission rate against latency slack — and is what keeps guarantees feasible";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "headroom 50%% admits %d/%d at %s mean latency; 100%% admits %d/%d at %s but books \
         the fabric so full that %d guarantee(s) slip — %s"
        low.admitted low.arrived
        (Format.asprintf "%a" U.Units.pp_time low.mean_probe_latency)
        high.admitted high.arrived
        (Format.asprintf "%a" U.Units.pp_time high.mean_probe_latency)
        high.violations
        (if ok then
           "admission and latency trade cleanly, and over-booking is visible exactly where \
            expected (matches the §3.2 arbiter story)"
         else "MISMATCH");
  }
