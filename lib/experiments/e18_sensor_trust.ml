(* E18 — sensor trust: lying telemetry vs the evidence gate.

   §3.1 wants monitoring for "device failure, misconfiguration, and
   performance anomaly detection" — but the monitor is itself built
   from sensors, and a sensor can lie. A probe agent that drops its own
   probes manufactures heartbeat accusations against healthy links; a
   drifting or stuck counter invents (or hides) load. If the
   remediation supervisor trusts any single detector, a handful of bad
   sensors can drive real migrations of healthy traffic.

   Scenario, run twice (identical seeds, workload and sensor faults):
   a guaranteed 10 GB/s victim pipe, >= 3 lying sensors (a corrupted
   probe agent on an on-path NIC, drifting byte counters on a healthy
   hop, stuck byte counters on the cross-socket link), and ONE true
   silent degradation (capacity x0.05, fabric announcements disabled).

   - ungated: heartbeat suspicion alone drives the full escalation
     ladder — the lying probe agent gets healthy links migrated away
     from (false migrations > 0);
   - gated: Replace/Degrade additionally require a corroborated
     verdict from the evidence gate. Heartbeat is one modality; the
     second is a targeted residual check (per-link latency probe vs its
     pre-fault baseline) reported under [Counter]. Only the truly
     degraded link gets two agreeing modalities, so false migrations
     drop to zero while the true fault still recovers in comparable
     time (the acceptance bound is TTR <= 2x the ungated baseline).

   The sampler's plausibility checks ({!Ihnet_monitor.Sampler.health})
   run alongside and flag the series-level liars — physics-violating
   byte deltas and flatlines — showing the lying sensors are also
   independently detectable, not just outvoted. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module M = Ihnet_monitor
module R = Ihnet_manager
open Common

let victim_rate = U.Units.gbytes_per_s 10.0
let sick = E.Fault.degrade ~capacity_factor:0.05 ()

let tenant_rate host ~tenant =
  let fab = Ihnet.Host.fabric host in
  E.Fabric.refresh fab;
  List.fold_left
    (fun acc (f : E.Flow.t) ->
      if f.E.Flow.tenant = tenant && f.E.Flow.cls = E.Flow.Payload then acc +. f.E.Flow.rate
      else acc)
    0.0 (E.Fabric.active_flows fab)

let start_victim host ~src ~dst =
  let mgr = Ihnet.Host.enable_manager host () in
  let p =
    match Ihnet.Host.submit_intent host (R.Intent.pipe ~tenant:1 ~src ~dst ~rate:victim_rate) with
    | Ok [ p ] -> p
    | Ok _ -> failwith "E18: expected one placement"
    | Error e -> failwith ("E18: admission refused: " ^ R.Mgr_error.to_string e)
  in
  let f =
    E.Fabric.start_flow (Ihnet.Host.fabric host) ~tenant:1 ~demand:victim_rate
      ~path:p.R.Placement.path ~size:E.Flow.Unbounded ()
  in
  ignore (R.Manager.attach mgr f);
  p

let hop_link (p : R.Placement.t) n =
  (List.nth p.R.Placement.path.T.Path.hops n).T.Path.link.T.Link.id

type outcome = {
  label : string;
  pre : float;
  faulted : float;
  post : float;
  detect : U.Units.ns option;
  recover : U.Units.ns option;
  true_migrations : int;  (** impactful Replace/Degrade on the faulted link *)
  false_migrations : int;  (** impactful Replace/Degrade on healthy links *)
  liars : int;  (** sensor faults active during the fault era *)
  flagged : int;  (** distinct links the plausibility checks called out *)
}

(* One-hop latency probe: behavioural (serialization at residual rate +
   fault delay), so it distinguishes a genuinely degraded link from one
   a lying probe agent merely accuses. *)
let link_latency host link_id =
  let topo = Ihnet.Host.topology host in
  let l = T.Topology.link topo link_id in
  E.Fabric.path_latency (Ihnet.Host.fabric host) ~payload_bytes:64
    { T.Path.src = l.T.Link.a; dst = l.T.Link.b; hops = [ { T.Path.link = l; dir = T.Link.Fwd } ] }

let run_one ~gated =
  let host = fresh_host () in
  let p = start_victim host ~src:"ext" ~dst:"socket0" in
  let config =
    {
      R.Remediation.default_config with
      R.Remediation.use_fault_events = false (* the degradation is silent *);
      suspect_score = 0.35 (* aggressive detector tuning: catches silent faults fast,
                              and is exactly what a lying probe agent can weaponize *);
    }
  in
  let rem =
    Ihnet.Host.enable_remediation host ~config
      ~wiring:{ Ihnet.Host.default_wiring with Ihnet.Host.evidence = gated }
      ()
  in
  let s = Ihnet.Host.start_monitoring host () in
  Ihnet.Host.run_for host (U.Units.ms 6.0) (* heartbeat baseline warm-up *);
  (* The liars. A corrupted probe agent on nic0 (on the victim's path)
     randomly declares its probes lost; byte counters on the healthy
     first hop over-report x3 (both directions); byte counters on the
     cross-socket link are stuck at their last value. *)
  let fab = Ihnet.Host.fabric host in
  let h0 = hop_link p 0 and bad = hop_link p 1 in
  let topo = Ihnet.Host.topology host in
  let cross = (T.Topology.link_named topo "socket0" "socket1").T.Link.id in
  E.Fabric.inject_sensor_fault fab
    (E.Sensorfault.Device (T.Topology.device_named topo "nic0").T.Device.id)
    (E.Sensorfault.probe_corruption ~loss:0.9 ());
  List.iter
    (fun dir ->
      E.Fabric.inject_sensor_fault fab
        (E.Sensorfault.Series (M.Sampler.bytes_series h0 dir))
        (E.Sensorfault.drifting ~factor:3.0);
      E.Fabric.inject_sensor_fault fab
        (E.Sensorfault.Series (M.Sampler.bytes_series cross dir))
        E.Sensorfault.stuck_at)
    [ T.Link.Fwd; T.Link.Rev ];
  let liars = List.length (E.Fabric.sensor_faults fab) in
  Ihnet.Host.run_for host (U.Units.ms 4.0) (* lying sensors active, no real fault *);
  let pre = tenant_rate host ~tenant:1 in
  (* Per-link latency baselines under steady load, for the residual check. *)
  let baseline = Hashtbl.create 32 in
  List.iter
    (fun (l : T.Link.t) -> Hashtbl.replace baseline l.T.Link.id (link_latency host l.T.Link.id))
    (T.Topology.links (Ihnet.Host.topology host));
  let t0 = Ihnet.Host.now host in
  E.Fabric.inject_fault fab bad sick;
  Ihnet.Host.run_for host (U.Units.us 100.0);
  let faulted = tenant_rate host ~tenant:1 in
  (* Fault era: advance in supervisor-period chunks; when gated, run the
     residual check over the evidence gate's current suspects. *)
  for _ = 1 to 100 do
    Ihnet.Host.run_for host (U.Units.us 200.0);
    match Ihnet.Host.evidence host with
    | None -> ()
    | Some ev ->
      List.iter
        (fun (link, _) ->
          match Hashtbl.find_opt baseline link with
          | None -> ()
          | Some base ->
            if link_latency host link > 3.0 *. base then
              M.Evidence.report ev ~modality:M.Evidence.Counter ~link ~score:0.9
            else M.Evidence.invalidate ev ~modality:M.Evidence.Counter ~link)
        (M.Evidence.suspects ev)
  done;
  let post = tenant_rate host ~tenant:1 in
  let true_migrations, false_migrations =
    List.fold_left
      (fun (tm, fm) (a : R.Remediation.action) ->
        if
          a.R.Remediation.impact
          && (a.R.Remediation.action_stage = R.Remediation.Replace
             || a.R.Remediation.action_stage = R.Remediation.Degrade)
        then if a.R.Remediation.action_link = bad then (tm + 1, fm) else (tm, fm + 1)
        else (tm, fm))
      (0, 0) (R.Remediation.actions rem)
  in
  let flagged =
    List.sort_uniq compare (List.map (fun (id, _, _) -> id) (M.Sampler.health s)) |> List.length
  in
  ( {
      label = (if gated then "evidence gate (quorum 2)" else "ungated (trust every detector)");
      pre;
      faulted;
      post;
      detect = R.Remediation.time_to_detect rem bad ~since:t0;
      recover = R.Remediation.time_to_recover rem bad;
      true_migrations;
      false_migrations;
      liars;
      flagged;
    },
    bad )

let run () =
  let ungated, _ = run_one ~gated:false in
  let gated, _ = run_one ~gated:true in
  let table =
    U.Table.create
      ~title:"E18: >=3 lying sensors + 1 true silent degradation — gated vs ungated remediation"
      ~columns:
        [
          "remediation";
          "pre";
          "under fault";
          "after loop";
          "detect";
          "recover";
          "true migr";
          "false migr";
          "liars";
          "flagged";
        ]
  in
  let opt_time = function Some v -> Format.asprintf "%a" U.Units.pp_time v | None -> "-" in
  List.iter
    (fun o ->
      U.Table.add_row table
        [
          o.label;
          Format.asprintf "%a" U.Units.pp_rate o.pre;
          Format.asprintf "%a" U.Units.pp_rate o.faulted;
          Format.asprintf "%a" U.Units.pp_rate o.post;
          opt_time o.detect;
          opt_time o.recover;
          string_of_int o.true_migrations;
          string_of_int o.false_migrations;
          string_of_int o.liars;
          string_of_int o.flagged;
        ])
    [ ungated; gated ];
  let ttr_ratio =
    match (gated.recover, ungated.recover) with
    | Some g, Some u when u > 0.0 -> Some (g /. u)
    | _ -> None
  in
  let ok =
    gated.false_migrations = 0
    && ungated.false_migrations > 0
    && gated.post >= 0.9 *. gated.pre
    && (match ttr_ratio with Some r -> r <= 2.0 | None -> false)
    && gated.flagged > 0
  in
  {
    id = "E18";
    title = "sensor trust: evidence gating vs lying telemetry";
    claim =
      "the monitor is made of sensors, and sensors fail too: remediation should demand \
       corroboration from independent modalities before migrating, so lying telemetry cannot \
       evict healthy links";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "ungated supervisor performed %d false migration(s) on healthy links under %d lying \
         sensors; the evidence gate performed %d while still resolving the true fault (TTR %s, \
         %.1fx the ungated baseline; victim restored to %.0f%% of pre-fault); plausibility checks \
         flagged %d lying link sensor(s) — %s"
        ungated.false_migrations ungated.liars gated.false_migrations
        (opt_time gated.recover)
        (match ttr_ratio with Some r -> r | None -> Float.nan)
        (100.0 *. gated.post /. gated.pre)
        gated.flagged
        (if ok then "matches the sensor-fault-tolerance goal" else "MISMATCH");
  }
