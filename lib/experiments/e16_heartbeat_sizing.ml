(* E16 — §3.1: heartbeats "similar to works like Pingmesh" meet the Q2
   cost question: how often should devices probe each other?

   Sweep the probe period. Faster rounds detect a silent fault sooner
   but burn more fabric bandwidth on probe traffic (all-pairs mesh over
   11 endpoints = 110 paths). The fault appears at 20 ms: a silent
   +5 µs on the switch uplink. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module Mon = Ihnet_monitor
open Common

let run_period period =
  let host = fresh_host () in
  let fab = Ihnet.Host.fabric host in
  let hb =
    Mon.Heartbeat.start fab
      ~config:{ (Mon.Heartbeat.default_config ()) with Mon.Heartbeat.period }
      ()
  in
  (* warm-up must cover the baseline-learning rounds at every period *)
  let warm = 10.0 *. period in
  Ihnet.Host.run_for host warm;
  let probe_rate = Mon.Heartbeat.probe_wire_bytes hb /. (warm /. 1e9) in
  let bad = (T.Topology.link_named (Ihnet.Host.topology host) "rp0.0" "pciesw0").T.Link.id in
  let t_inject = Ihnet.Host.now host in
  E.Fabric.inject_fault fab bad
    { E.Fault.capacity_factor = 1.0; extra_latency = U.Units.us 5.0; loss_prob = 0.0 };
  Ihnet.Host.run_for host (5.0 *. period);
  let detection =
    match Mon.Heartbeat.first_detection hb with
    | Some at when at >= t_inject -> at -. t_inject
    | Some _ | None -> nan
  in
  Mon.Heartbeat.stop hb;
  (probe_rate, detection)

let run () =
  let table =
    U.Table.create
      ~title:"E16: heartbeat probe period vs detection latency and probe overhead"
      ~columns:[ "probe period"; "probe traffic (all pairs)"; "detection latency" ]
  in
  let rows =
    List.map
      (fun period ->
        let rate, detection = run_period period in
        U.Table.add_row table
          [
            Format.asprintf "%a" U.Units.pp_time period;
            Format.asprintf "%a" U.Units.pp_rate rate;
            (if Float.is_nan detection then "not detected"
             else Format.asprintf "%a" U.Units.pp_time detection);
          ];
        (period, rate, detection))
      [ U.Units.us 100.0; U.Units.ms 1.0; U.Units.ms 10.0 ]
  in
  let _, fast_rate, fast_det = List.nth rows 0 in
  let _, slow_rate, slow_det = List.nth rows 2 in
  let ok =
    fast_det < slow_det
    && fast_rate > slow_rate *. 50.0
    && fast_det <= U.Units.us 200.0
    && List.for_all (fun (_, _, d) -> not (Float.is_nan d)) rows
  in
  {
    id = "E16";
    title = "heartbeat sizing";
    claim =
      "device-to-device heartbeats detect silent failures; their period trades detection \
       latency against the probes' own fabric footprint (§3.1 + Q2)";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "100 us rounds detect in %s costing %s of probes; 10 ms rounds cost %s but need %s — %s"
        (Format.asprintf "%a" U.Units.pp_time fast_det)
        (Format.asprintf "%a" U.Units.pp_rate fast_rate)
        (Format.asprintf "%a" U.Units.pp_rate slow_rate)
        (Format.asprintf "%a" U.Units.pp_time slow_det)
        (if ok then "the probing budget buys detection speed (matches §3.1)" else "MISMATCH");
  }
