(* E7 — §3.1-Q2: "Processing the data locally may consume on-device
   computation resources ... sending the collected data to other host
   devices may consume substantial intra-host communication resources."

   Sweep the sampling period across {10us, 100us, 1ms, 10ms} for both
   processing strategies and report: telemetry bandwidth (shipped),
   device CPU time (local), telemetry memory, and the detection latency
   of a threshold alarm on a congestion event injected mid-run — the
   fidelity the overhead buys. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module Mon = Ihnet_monitor
open Common

let run_cell ~period ~processing =
  let host = fresh_host () in
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let sampler =
    Mon.Sampler.start fab
      {
        Mon.Sampler.period;
        fidelity = Mon.Counter.Hardware { max_read_hz = 1e9 /. period };
        noise = 0.0;
        processing;
        tenants = [];
      }
  in
  let watched = (T.Topology.link_named topo "pciesw0" "nic0").T.Link.id in
  let platform = Mon.Anomaly.create () in
  List.iter
    (fun dir ->
      Mon.Anomaly.watch platform
        ~series:(Mon.Sampler.util_series watched dir)
        (Mon.Anomaly.Threshold { above = Some 0.8; below = None }))
    [ T.Link.Fwd; T.Link.Rev ];
  Ihnet.Host.run_for host (U.Units.ms 20.0);
  (* congestion event: an elastic flow saturates the watched link *)
  let t_event = Ihnet.Host.now host in
  let path = T.Routing.route topo "nic0" "socket0" in
  let agg = E.Fabric.start_flow fab ~tenant:9 ~llc_target:true ~path ~size:E.Flow.Unbounded () in
  (* feed the platform continuously until the alarm (or 50 ms) *)
  let detection = ref nan in
  (try
     for _ = 1 to 500 do
       Ihnet.Host.run_for host (U.Units.us 100.0);
       Mon.Anomaly.feed platform (Mon.Sampler.telemetry sampler);
       match Mon.Anomaly.first_alarm platform with
       | Some a ->
         detection := a.Mon.Anomaly.at -. t_event;
         raise Exit
       | None -> ()
     done
   with Exit -> ());
  E.Fabric.stop_flow fab agg;
  let shipping = Mon.Sampler.shipping_rate sampler in
  let cpu = Mon.Sampler.cpu_time_consumed sampler in
  let wire = Mon.Sampler.monitoring_wire_bytes sampler in
  let mem = Mon.Telemetry.memory_samples (Mon.Sampler.telemetry sampler) in
  Mon.Sampler.stop sampler;
  (shipping, cpu, wire, mem, !detection)

let run () =
  let table =
    U.Table.create ~title:"E7: monitoring overhead vs sampling period (storage/processing dilemma)"
      ~columns:
        [
          "period";
          "processing";
          "telemetry bw";
          "device cpu (per ms)";
          "fabric bytes (70ms)";
          "stored samples";
          "detection latency";
        ]
  in
  let cells = ref [] in
  List.iter
    (fun period ->
      List.iter
        (fun (label, processing) ->
          let shipping, cpu, wire, mem, det = run_cell ~period ~processing in
          cells := (period, label, shipping, det) :: !cells;
          U.Table.add_row table
            [
              Format.asprintf "%a" U.Units.pp_time period;
              label;
              (if shipping > 0.0 then Format.asprintf "%a" U.Units.pp_rate shipping else "-");
              (if cpu > 0.0 then Format.asprintf "%a" U.Units.pp_time (cpu /. 70.0) else "-");
              Format.asprintf "%a" U.Units.pp_bytes wire;
              string_of_int mem;
              (if Float.is_nan det then "not detected"
               else Format.asprintf "%a" U.Units.pp_time det);
            ])
        [
          ("local", Mon.Sampler.Local { cost_per_sample = 500.0 });
          ("ship", Mon.Sampler.Ship { collector = "socket0"; bytes_per_sample = 64.0 });
        ])
    [ U.Units.us 10.0; U.Units.us 100.0; U.Units.ms 1.0; U.Units.ms 10.0 ];
  (* verdict: detection latency grows with period; shipping bw shrinks *)
  let det_of p =
    List.find_map
      (fun (period, label, _, det) -> if period = p && label = "ship" then Some det else None)
      !cells
  in
  let bw_of p =
    List.find_map
      (fun (period, label, bw, _) -> if period = p && label = "ship" then Some bw else None)
      !cells
  in
  let d_fast = Option.value ~default:nan (det_of (U.Units.us 10.0)) in
  let d_slow = Option.value ~default:nan (det_of (U.Units.ms 10.0)) in
  let b_fast = Option.value ~default:nan (bw_of (U.Units.us 10.0)) in
  let b_slow = Option.value ~default:nan (bw_of (U.Units.ms 10.0)) in
  let ok = d_fast < d_slow && b_fast > b_slow *. 100.0 in
  {
    id = "E7";
    title = "monitoring overhead vs fidelity";
    claim =
      "fine-grained monitoring either burns device compute or fabric bandwidth; \
       microsecond-level loops are costly but cut detection latency";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "10us sampling detects in %s but ships %s; 10ms sampling ships %s but needs %s — %s"
        (Format.asprintf "%a" U.Units.pp_time d_fast)
        (Format.asprintf "%a" U.Units.pp_rate b_fast)
        (Format.asprintf "%a" U.Units.pp_rate b_slow)
        (Format.asprintf "%a" U.Units.pp_time d_slow)
        (if ok then "the dilemma is real (matches paper)" else "MISMATCH");
  }
