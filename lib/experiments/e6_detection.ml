(* E6 — §3.1's motivating case: "a hardware failure occurring on the
   PCIe switch may silently cause the connected PCIe device to suffer
   performance degradation. ... This cannot be easily detected using
   performance counters only ... This can be addressed by having
   devices ... periodically send heartbeats to each other".

   Two silent faults on the switch's upstream link, each detected with
   (a) a counter pipeline — hardware-fidelity sampler + CUSUM on every
   PCIe link's utilization — and (b) the heartbeat mesh:

   - latency-only fault (+5 us, full capacity): the workload's rate is
     unchanged, so counters see nothing at all;
   - throughput fault (capacity x0.2): counters eventually alarm, but
     on every link the victim flows cross; heartbeats also alarm and
     localize to the faulty link (up to serial-link ambiguity). *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module Mon = Ihnet_monitor
open Common

type method_outcome = {
  detected : bool;
  latency : U.Units.ns; (* detection time after injection; nan if none *)
  localization : string;
}

let background host =
  (* steady load through the switch subtree at ~40% of the x16 slot *)
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let path = T.Routing.route topo "nic0" "socket0" in
  E.Fabric.start_flow fab ~tenant:1 ~demand:12e9 ~llc_target:true ~path ~size:E.Flow.Unbounded ()

let run_variant ~label ~fault =
  let host = fresh_host () in
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  ignore (background host);
  (* counter pipeline *)
  let sampler =
    Mon.Sampler.start fab
      {
        (Mon.Sampler.default_config ()) with
        Mon.Sampler.period = U.Units.us 100.0;
        fidelity = Mon.Counter.Hardware { max_read_hz = 10_000.0 };
      }
  in
  let platform = Mon.Anomaly.create () in
  let pcie_links =
    List.filter
      (fun (l : T.Link.t) -> match l.T.Link.kind with T.Link.Pcie _ -> true | _ -> false)
      (T.Topology.links topo)
  in
  List.iter
    (fun (l : T.Link.t) ->
      List.iter
        (fun dir ->
          Mon.Anomaly.watch platform
            ~series:(Mon.Sampler.util_series l.T.Link.id dir)
            (Mon.Anomaly.Cusum { drift = 0.5; threshold = 5.0 }))
        [ T.Link.Fwd; T.Link.Rev ])
    pcie_links;
  (* heartbeat mesh *)
  let hb = Mon.Heartbeat.start fab () in
  (* warm up both detectors *)
  Ihnet.Host.run_for host (U.Units.ms 10.0);
  Mon.Anomaly.feed platform (Mon.Sampler.telemetry sampler);
  Mon.Anomaly.clear_alarms platform;
  (* inject on the switch upstream link *)
  let bad_link = (T.Topology.link_named (Ihnet.Host.topology host) "rp0.0" "pciesw0").T.Link.id in
  let t_inject = Ihnet.Host.now host in
  E.Fabric.inject_fault fab bad_link fault;
  (* observe for 20 ms, feeding the platform each ms *)
  let counter_alarm = ref None in
  for _ = 1 to 20 do
    Ihnet.Host.run_for host (U.Units.ms 1.0);
    Mon.Anomaly.feed platform (Mon.Sampler.telemetry sampler);
    if !counter_alarm = None then counter_alarm := Mon.Anomaly.first_alarm platform
  done;
  let counter_outcome =
    match !counter_alarm with
    | Some a ->
      let alarmed_series =
        List.sort_uniq compare
          (List.map (fun (x : Mon.Anomaly.alarm) -> x.Mon.Anomaly.series)
             (Mon.Anomaly.alarms platform))
      in
      {
        detected = true;
        latency = a.Mon.Anomaly.at -. t_inject;
        localization =
          Printf.sprintf "ambiguous: %d series alarmed" (List.length alarmed_series);
      }
    | None -> { detected = false; latency = nan; localization = "-" }
  in
  let hb_outcome =
    match Mon.Heartbeat.first_detection hb with
    | Some at when at >= t_inject ->
      let loc =
        match Mon.Heartbeat.localize hb with
        | [] -> "none"
        | suspects ->
          let top_score = (List.hd suspects).Mon.Heartbeat.score in
          let tops =
            List.filter (fun s -> s.Mon.Heartbeat.score >= top_score -. 1e-9) suspects
          in
          if List.exists (fun s -> s.Mon.Heartbeat.link = bad_link) tops then
            Printf.sprintf "correct (top group of %d serial links)" (List.length tops)
          else "WRONG link"
      in
      { detected = true; latency = at -. t_inject; localization = loc }
    | Some _ | None -> { detected = false; latency = nan; localization = "-" }
  in
  Mon.Heartbeat.stop hb;
  Mon.Sampler.stop sampler;
  (label, counter_outcome, hb_outcome)

let run () =
  let latency_fault =
    { E.Fault.capacity_factor = 1.0; extra_latency = U.Units.us 5.0; loss_prob = 0.0 }
  in
  let throughput_fault = E.Fault.degrade ~capacity_factor:0.2 () in
  let v1 = run_variant ~label:"latency-only fault (+5 us)" ~fault:latency_fault in
  let v2 = run_variant ~label:"throughput fault (capacity x0.2)" ~fault:throughput_fault in
  let table =
    U.Table.create ~title:"E6: silent PCIe switch degradation — counters vs heartbeats"
      ~columns:[ "fault"; "method"; "detected"; "detection latency"; "localization" ]
  in
  let add (label, counters, hb) =
    let row method_name (o : method_outcome) =
      U.Table.add_row table
        [
          label;
          method_name;
          (if o.detected then "yes" else "no");
          (if o.detected then Format.asprintf "%a" U.Units.pp_time o.latency else "-");
          o.localization;
        ]
    in
    row "hw counters + CUSUM" counters;
    row "heartbeat mesh" hb
  in
  add v1;
  add v2;
  let _, c1, h1 = v1 and _, c2, h2 = v2 in
  let ok = (not c1.detected) && h1.detected && h2.detected in
  {
    id = "E6";
    title = "failure detection: counters vs heartbeats";
    claim =
      "silent switch degradation 'cannot be easily detected using performance counters only'; \
       heartbeats detect and localize it";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "latency fault: counters %s, heartbeats detect in %s; throughput fault: counters %s \
         (no localization), heartbeats localize — %s"
        (if c1.detected then "detected (unexpected)" else "blind")
        (Format.asprintf "%a" U.Units.pp_time h1.latency)
        (if c2.detected then Format.asprintf "detect in %a" U.Units.pp_time c2.latency
         else "blind")
        (if ok then "matches the paper's claim" else "MISMATCH");
  }
