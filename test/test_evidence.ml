(* Sensor-fault tolerance tests: the Sensorfault model, the trace codec
   for its injection ops, record → replay conformance with lying
   sensors, the monitor's validity metadata (telemetry staleness,
   sampler plausibility verdicts, coverage-discounted heartbeat
   confidence), the evidence corroboration gate, the remediation
   migration rate limiter, and the qcheck interleaving property that no
   mix of lying sensors and real faults ever migrates traffic off a
   healthy link. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module Mon = Ihnet_monitor
module R = Ihnet_manager
module Rec = Ihnet_record

let tc name f = Alcotest.test_case name `Quick f

let fresh ?(seed = 11) () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create ~seed sim topo in
  (topo, sim, fab)

let run_for sim ns = E.Sim.run ~until:(E.Sim.now sim +. ns) sim

(* {1 Sensorfault model} *)

let sf_check = Alcotest.(check bool)

(* One bad field each, with the reason [inject] gives, naming the
   record field, and the one a trace line gives, naming its key. *)
let bad_sensor_faults =
  let n = E.Sensorfault.none in
  [
    ( { n with E.Sensorfault.drop_prob = nan },
      "drop_prob must be in [0, 1] (got nan)",
      "drop must be in [0, 1] (got nan)" );
    ( { n with E.Sensorfault.dup_prob = -0.1 },
      "dup_prob must be in [0, 1] (got -0.1)",
      "dup must be in [0, 1] (got -0.1)" );
    ( { n with E.Sensorfault.probe_loss = 1.5 },
      "probe_loss must be in [0, 1] (got 1.5)",
      "ploss must be in [0, 1] (got 1.5)" );
    ( { n with E.Sensorfault.probe_slow = nan },
      "probe_slow must be in [0, 1] (got nan)",
      "pslow must be in [0, 1] (got nan)" );
    ({ n with E.Sensorfault.drift = nan }, "drift must be >= 0 (got nan)", "drift must be >= 0 (got nan)");
    ({ n with E.Sensorfault.drift = -1.0 }, "drift must be >= 0 (got -1)", "drift must be >= 0 (got -1)");
    ({ n with E.Sensorfault.skew = nan }, "skew must be finite (got nan)", "skew must be finite (got nan)");
    ( { n with E.Sensorfault.skew = infinity },
      "skew must be finite (got inf)",
      "skew must be finite (got inf)" );
  ]

let sensorfault_tests =
  [
    tc "none is healthy and constructors are not" (fun () ->
        sf_check "none" true (E.Sensorfault.is_none E.Sensorfault.none);
        List.iter
          (fun sf -> sf_check "faulty" false (E.Sensorfault.is_none sf))
          [
            E.Sensorfault.stuck_at;
            E.Sensorfault.drifting ~factor:2.0;
            E.Sensorfault.lossy ~drop_prob:0.1 ();
            E.Sensorfault.skewed ~skew:(U.Units.us 5.0);
            E.Sensorfault.probe_corruption ~loss:0.5 ();
          ]);
    tc "merge: stuck ORs, drift multiplies, probabilities noisy-OR, skews add" (fun () ->
        let a =
          {
            (E.Sensorfault.drifting ~factor:2.0) with
            E.Sensorfault.drop_prob = 0.5;
            skew = 10.0;
          }
        in
        let b =
          { E.Sensorfault.stuck_at with E.Sensorfault.drift = 3.0; drop_prob = 0.5; skew = 5.0 }
        in
        let m = E.Sensorfault.merge a b in
        sf_check "stuck" true m.E.Sensorfault.stuck;
        Alcotest.(check (float 1e-9)) "drift" 6.0 m.E.Sensorfault.drift;
        Alcotest.(check (float 1e-9)) "drop" 0.75 m.E.Sensorfault.drop_prob;
        Alcotest.(check (float 1e-9)) "skew" 15.0 m.E.Sensorfault.skew;
        sf_check "merge with none is identity" true
          (E.Sensorfault.merge a E.Sensorfault.none = a));
    tc "inject validates parameters" (fun () ->
        let t = E.Sensorfault.create () in
        Alcotest.check_raises "drop_prob > 1"
          (Invalid_argument "Sensorfault.inject: drop_prob must be in [0, 1] (got 1.5)") (fun () ->
            E.Sensorfault.inject t (E.Sensorfault.Series "s")
              { E.Sensorfault.none with E.Sensorfault.drop_prob = 1.5 }));
    tc "active is deterministically ordered and clear removes" (fun () ->
        let t = E.Sensorfault.create () in
        E.Sensorfault.inject t (E.Sensorfault.Series "b") E.Sensorfault.stuck_at;
        E.Sensorfault.inject t (E.Sensorfault.Device 7) (E.Sensorfault.drifting ~factor:2.0);
        E.Sensorfault.inject t (E.Sensorfault.Device 2) E.Sensorfault.stuck_at;
        E.Sensorfault.inject t (E.Sensorfault.Series "a") E.Sensorfault.stuck_at;
        Alcotest.(check int) "count" 4 (E.Sensorfault.count t);
        let order = List.map fst (E.Sensorfault.active t) in
        sf_check "devices by id then series by name" true
          (order
          = [
              E.Sensorfault.Device 2;
              E.Sensorfault.Device 7;
              E.Sensorfault.Series "a";
              E.Sensorfault.Series "b";
            ]);
        E.Sensorfault.clear t (E.Sensorfault.Device 7);
        sf_check "cleared target reads healthy" true
          (E.Sensorfault.is_none (E.Sensorfault.get t (E.Sensorfault.Device 7)));
        E.Sensorfault.clear_all t;
        Alcotest.(check int) "clear_all" 0 (E.Sensorfault.count t));
    tc "describe is compact and labeled" (fun () ->
        Alcotest.(check string) "healthy" "healthy" (E.Sensorfault.describe E.Sensorfault.none);
        Alcotest.(check string)
          "device label" "device 3"
          (E.Sensorfault.target_label (E.Sensorfault.Device 3));
        let d = E.Sensorfault.describe (E.Sensorfault.drifting ~factor:1.5) in
        sf_check "mentions drift" true
          (String.length d >= 5 && String.sub d 0 5 = "drift"));
    tc "inject refuses a NaN or out-of-range field, naming it" (fun () ->
        let t = E.Sensorfault.create () in
        List.iter
          (fun (sf, why, _) ->
            Alcotest.check_raises why (Invalid_argument ("Sensorfault.inject: " ^ why)) (fun () ->
                E.Sensorfault.inject t (E.Sensorfault.Series "s") sf))
          bad_sensor_faults;
        Alcotest.(check int) "nothing installed" 0 (E.Sensorfault.count t));
  ]

(* {1 Trace codec for sensor ops} *)

let roundtrip line =
  match Rec.Trace.line_of_string (Rec.Trace.line_to_string line) with
  | Ok l -> l
  | Error e -> Alcotest.fail ("codec: " ^ e)

let codec_tests =
  [
    tc "sensor-fault ops round-trip exactly" (fun () ->
        let sf =
          {
            E.Sensorfault.stuck = true;
            drift = 2.5;
            drop_prob = 0.125;
            dup_prob = 0.0625;
            skew = 12345.678;
            probe_loss = 0.9;
            probe_slow = 0.25;
          }
        in
        List.iter
          (fun op ->
            let line = Rec.Trace.Op { at = 42.5; op } in
            sf_check "round-trip" true (roundtrip line = line))
          [
            Rec.Trace.Inject_sensor_fault { starget = E.Sensorfault.Device 9; sf };
            Rec.Trace.Inject_sensor_fault { starget = E.Sensorfault.Series "link.4.fwd.bytes"; sf };
            Rec.Trace.Clear_sensor_fault (E.Sensorfault.Device 9);
            Rec.Trace.Clear_sensor_fault (E.Sensorfault.Series "link.4.fwd.bytes");
          ]);
    tc "a sensor_fault op line with a bad field is refused, naming it" (fun () ->
        List.iter
          (fun (sf, _, why) ->
            let op = Rec.Trace.Inject_sensor_fault { starget = E.Sensorfault.Device 2; sf } in
            let line = Rec.Trace.line_to_string (Rec.Trace.Op { at = 1.0; op }) in
            Alcotest.(check (result unit string)) why (Error why)
              (Result.map ignore (Rec.Trace.line_of_string line)))
          bad_sensor_faults);
  ]

(* {1 Record → replay conformance with lying sensors} *)

let replay_tests =
  [
    tc "sensor faults are recorded and replayed onto the fresh fabric" (fun () ->
        let topo, sim, fab = fresh () in
        let buf = Buffer.create 8192 in
        let rcd =
          Rec.Recorder.attach ~digest_every:4 ~label:"sensor-replay" ~seed:11
            ~sink:(Rec.Recorder.buffer_sink buf) fab
        in
        ignore
          (E.Fabric.start_flow fab ~tenant:1 ~demand:(U.Units.gbytes_per_s 6.0)
             ~path:(T.Routing.route topo "ext" "socket0") ~size:E.Flow.Unbounded ());
        run_for sim (U.Units.us 200.0);
        E.Fabric.inject_sensor_fault fab
          (E.Sensorfault.Device (T.Topology.device_named topo "nic0").T.Device.id)
          (E.Sensorfault.probe_corruption ~loss:0.8 ~slow:0.1 ());
        E.Fabric.inject_sensor_fault fab
          (E.Sensorfault.Series "link.3.fwd.bytes")
          (E.Sensorfault.drifting ~factor:3.0);
        run_for sim (U.Units.us 300.0);
        let sick =
          (List.hd (T.Routing.route topo "ext" "socket0").T.Path.hops).T.Path.link.T.Link.id
        in
        E.Fabric.inject_fault fab sick (E.Fault.degrade ~capacity_factor:0.1 ());
        run_for sim (U.Units.us 300.0);
        E.Fabric.clear_sensor_fault fab (E.Sensorfault.Series "link.3.fwd.bytes");
        run_for sim (U.Units.us 200.0);
        Rec.Recorder.stop rcd;
        let trace =
          match Rec.Trace.parse (Buffer.contents buf) with
          | Ok t -> t
          | Error e -> Alcotest.fail ("trace parse: " ^ e)
        in
        let replayed = ref None in
        let setup _sim fab = replayed := Some fab in
        (match Rec.Replay.run ~setup trace with
        | Error e -> Alcotest.fail ("replay refused: " ^ e)
        | Ok r ->
          if not (Rec.Replay.ok r) then
            Alcotest.fail (Format.asprintf "%a" Rec.Replay.pp_report r));
        match !replayed with
        | None -> Alcotest.fail "replay never ran setup"
        | Some rfab ->
          sf_check "same active sensor faults after replay" true
            (E.Fabric.sensor_faults rfab = E.Fabric.sensor_faults fab));
  ]

(* {1 Telemetry validity metadata} *)

let telemetry_tests =
  [
    tc "last_update and staleness track the newest sample" (fun () ->
        let tl = Mon.Telemetry.create () in
        sf_check "unknown series" true (Mon.Telemetry.last_update tl ~series:"x" = None);
        Mon.Telemetry.record tl ~series:"x" ~at:100.0 1.0;
        Mon.Telemetry.record tl ~series:"x" ~at:250.0 2.0;
        sf_check "last update" true (Mon.Telemetry.last_update tl ~series:"x" = Some 250.0);
        sf_check "staleness" true
          (Mon.Telemetry.staleness tl ~series:"x" ~now:400.0 = Some 150.0);
        sf_check "staleness clamps at zero under skew" true
          (Mon.Telemetry.staleness tl ~series:"x" ~now:200.0 = Some 0.0));
  ]

(* {1 Counter / sampler plausibility verdicts} *)

let load_host () =
  let host = Ihnet.Host.create ~seed:5 Ihnet.Host.Two_socket in
  let mgr = Ihnet.Host.enable_manager host () in
  let p =
    match
      Ihnet.Host.submit_intent host
        (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:(U.Units.gbytes_per_s 10.0))
    with
    | Ok [ p ] -> p
    | _ -> Alcotest.fail "submit failed"
  in
  let f =
    E.Fabric.start_flow (Ihnet.Host.fabric host) ~tenant:1 ~demand:(U.Units.gbytes_per_s 10.0)
      ~path:p.R.Placement.path ~size:E.Flow.Unbounded ()
  in
  ignore (R.Manager.attach mgr f);
  (host, p)

let hop_link (p : R.Placement.t) n =
  (List.nth p.R.Placement.path.T.Path.hops n).T.Path.link.T.Link.id

(* id and traffic direction of the nth hop: sensor faults on a bytes
   series only matter in the direction the flow actually loads *)
let hop (p : R.Placement.t) n =
  let h = List.nth p.R.Placement.path.T.Path.hops n in
  (h.T.Path.link.T.Link.id, h.T.Path.dir)

let health_tests =
  [
    tc "sampler flags stuck and drifting series; honest sensors stay clean" (fun () ->
        let host, p = load_host () in
        let s = Ihnet.Host.start_monitoring host () in
        Ihnet.Host.run_for host (U.Units.ms 2.0);
        Alcotest.(check (list reject)) "no verdicts while honest" [] (Mon.Sampler.health s);
        let fab = Ihnet.Host.fabric host in
        let loaded, ldir = hop p 0 in
        E.Fabric.inject_sensor_fault fab
          (E.Sensorfault.Series (Mon.Sampler.bytes_series loaded ldir))
          E.Sensorfault.stuck_at;
        let drifted, ddir = hop p 1 in
        (* 10x a 10 GB/s flow clears every link capacity on the path *)
        E.Fabric.inject_sensor_fault fab
          (E.Sensorfault.Series (Mon.Sampler.bytes_series drifted ddir))
          (E.Sensorfault.drifting ~factor:10.0);
        Ihnet.Host.run_for host (U.Units.ms 2.0);
        let verdicts = Mon.Sampler.health s in
        sf_check "stuck series flatlines" true
          (List.exists (fun (id, d, v) -> id = loaded && d = ldir && v = `Flatline) verdicts);
        sf_check "drifting series is physically impossible" true
          (List.exists (fun (id, d, v) -> id = drifted && d = ddir && v = `Out_of_range) verdicts));
    tc "counter flags a drifting device; honest devices stay clean" (fun () ->
        (* over-reporting outruns the wire; under-reporting, begun
           mid-run, steps the cumulative count backwards *)
        List.iter
          (fun factor ->
            let host, p = load_host () in
            let topo = Ihnet.Host.topology host in
            let s = Ihnet.Host.start_monitoring host () in
            Ihnet.Host.run_for host (U.Units.ms 2.0);
            Alcotest.(check (list reject)) "no verdicts while honest" [] (Mon.Sampler.health s);
            (* drift the NIC the pipe actually enters through: a device
               fault corrupts the counter's reading of every incident
               link, and the sampler judges what it stored of those
               readings *)
            let nic_link, nic_dir = hop p 0 in
            let l = T.Topology.link topo nic_link in
            let ext = (T.Topology.device_named topo "ext").T.Device.id in
            let nic = if l.T.Link.a = ext then l.T.Link.b else l.T.Link.a in
            E.Fabric.inject_sensor_fault (Ihnet.Host.fabric host)
              (E.Sensorfault.Device nic)
              (E.Sensorfault.drifting ~factor);
            Ihnet.Host.run_for host (U.Units.ms 2.0);
            sf_check
              (Printf.sprintf "x%g: nic-adjacent link flagged out-of-range" factor)
              true
              (List.exists
                 (fun (id, d, v) -> id = nic_link && d = nic_dir && v = `Out_of_range)
                 (Mon.Sampler.health s)))
          [ 10.0; 0.5 ]);
    tc "a re-armed stuck sensor freezes afresh; a cleared one reads true" (fun () ->
        (* a 5 GB/s ext -> socket0 flow, and a fault-free twin host *)
        let make () =
          let host = Ihnet.Host.create ~seed:5 Ihnet.Host.Two_socket in
          let p = T.Routing.route (Ihnet.Host.topology host) "ext" "socket0" in
          ignore
            (E.Fabric.start_flow (Ihnet.Host.fabric host) ~tenant:1
               ~demand:(U.Units.gbytes_per_s 5.0) ~path:p ~size:E.Flow.Unbounded ());
          (host, p, Ihnet.Host.start_monitoring host ())
        in
        List.iter
          (fun scope ->
            let host, p, s = make () and twin, _, ts = make () in
            let fab = Ihnet.Host.fabric host in
            let hop = List.hd p.T.Path.hops in
            let l = hop.T.Path.link in
            let series = Mon.Sampler.bytes_series l.T.Link.id hop.T.Path.dir in
            let target =
              match scope with
              | `Series -> E.Sensorfault.Series series
              | `Device ->
                (* the device the pipe enters through: its stuck
                   counters freeze every incident link's reading *)
                let ext = (T.Topology.device_named (Ihnet.Host.topology host) "ext").T.Device.id in
                E.Sensorfault.Device (if l.T.Link.a = ext then l.T.Link.b else l.T.Link.a)
            in
            let label = E.Sensorfault.target_label target in
            let run ms = List.iter (fun h -> Ihnet.Host.run_for h (U.Units.ms ms)) [ host; twin ] in
            let since sampler at =
              List.map
                (fun x -> x.Mon.Telemetry.value)
                (Mon.Telemetry.window (Mon.Sampler.telemetry sampler) ~series ~since:at)
            in
            let latest sampler = List.rev (since sampler neg_infinity) |> List.hd in
            let episode n =
              let armed = E.Fabric.now fab +. 1.0 in
              E.Fabric.inject_sensor_fault fab target E.Sensorfault.stuck_at;
              run 1.0;
              let read_at_arming = List.hd (since ts armed) in
              let held = since s armed in
              Alcotest.(check int) "one sample per tick" 10 (List.length held);
              Alcotest.(check (list (float 0.0)))
                (Printf.sprintf "%s, episode %d: holds the value read at arming" label n)
                (List.map (fun _ -> read_at_arming) held)
                held;
              sf_check "the twin's count moved on" true (latest ts > read_at_arming);
              E.Fabric.clear_sensor_fault fab target;
              run 1.0;
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s, cleared after episode %d: reads as the twin" label n)
                (latest ts) (latest s)
            in
            run 1.0;
            episode 1;
            episode 2)
          [ `Series; `Device ]);
  ]

(* {1 Evidence gate} *)

let gate_is_corroborated = function `Corroborated _ -> true | _ -> false
let gate_is_suspected = function `Suspected _ -> true | _ -> false

let evidence_tests =
  [
    tc "config validation" (fun () ->
        let _, _, fab = fresh () in
        Alcotest.check_raises "quorum 0" (Invalid_argument "Evidence.create: quorum must be >= 1")
          (fun () ->
            ignore
              (Mon.Evidence.create
                 ~config:{ (Mon.Evidence.default_config ()) with Mon.Evidence.quorum = 0 }
                 fab)));
    tc "single modality suspects, quorum corroborates" (fun () ->
        let _, _, fab = fresh () in
        let ev = Mon.Evidence.create fab in
        sf_check "no reports" true (Mon.Evidence.verdict ev 4 = `Unknown);
        Mon.Evidence.report ev ~modality:Mon.Evidence.Heartbeat ~link:4 ~score:0.9;
        sf_check "one modality is only suspicion" true
          (gate_is_suspected (Mon.Evidence.verdict ev 4));
        Mon.Evidence.report ev ~modality:Mon.Evidence.Anomaly ~link:4 ~score:0.8;
        sf_check "two independent modalities corroborate" true
          (gate_is_corroborated (Mon.Evidence.verdict ev 4)));
    tc "a repeating detector is still one witness" (fun () ->
        let _, _, fab = fresh () in
        let ev = Mon.Evidence.create fab in
        for _ = 1 to 1000 do
          Mon.Evidence.report ev ~modality:Mon.Evidence.Heartbeat ~link:2 ~score:0.99
        done;
        Alcotest.(check int) "one live report" 1 (Mon.Evidence.report_count ev);
        sf_check "still not corroborated" true
          (gate_is_suspected (Mon.Evidence.verdict ev 2)));
    tc "weak reports don't count toward quorum" (fun () ->
        let _, _, fab = fresh () in
        let ev = Mon.Evidence.create fab in
        Mon.Evidence.report ev ~modality:Mon.Evidence.Heartbeat ~link:3 ~score:0.9;
        Mon.Evidence.report ev ~modality:Mon.Evidence.Anomaly ~link:3 ~score:0.1;
        sf_check "strong + weak stays suspicion" true
          (gate_is_suspected (Mon.Evidence.verdict ev 3)));
    tc "operator injections corroborate alone and clears withdraw them" (fun () ->
        let topo, _, fab = fresh () in
        let ev = Mon.Evidence.create fab in
        let link = (List.hd (T.Topology.links topo)).T.Link.id in
        E.Fabric.inject_fault fab link (E.Fault.degrade ~capacity_factor:0.2 ());
        sf_check "trusted modality corroborates alone" true
          (gate_is_corroborated (Mon.Evidence.verdict ev link));
        E.Fabric.clear_fault fab link;
        sf_check "clear withdraws the report" true (Mon.Evidence.verdict ev link = `Unknown));
    tc "reports expire with the sliding window" (fun () ->
        let _, sim, fab = fresh () in
        let ev =
          Mon.Evidence.create
            ~config:{ (Mon.Evidence.default_config ()) with Mon.Evidence.window = U.Units.ms 1.0 }
            fab
        in
        Mon.Evidence.report ev ~modality:Mon.Evidence.Heartbeat ~link:1 ~score:0.9;
        sf_check "live inside the window" true (Mon.Evidence.verdict ev 1 <> `Unknown);
        run_for sim (U.Units.ms 2.0);
        sf_check "expired outside the window" true (Mon.Evidence.verdict ev 1 = `Unknown));
    tc "invalidate withdraws one modality" (fun () ->
        let _, _, fab = fresh () in
        let ev = Mon.Evidence.create fab in
        Mon.Evidence.report ev ~modality:Mon.Evidence.Heartbeat ~link:6 ~score:0.9;
        Mon.Evidence.report ev ~modality:Mon.Evidence.Counter ~link:6 ~score:0.9;
        sf_check "corroborated" true (gate_is_corroborated (Mon.Evidence.verdict ev 6));
        Mon.Evidence.invalidate ev ~modality:Mon.Evidence.Counter ~link:6;
        sf_check "back to suspicion" true (gate_is_suspected (Mon.Evidence.verdict ev 6)));
    tc "anomaly alarms map to links through series names" (fun () ->
        let _, _, fab = fresh () in
        let ev = Mon.Evidence.create fab in
        Mon.Evidence.feed_anomaly ev
          [
            { Mon.Anomaly.at = 0.0; series = "link.5.fwd.util"; value = 0.1; reason = "shift" };
            { Mon.Anomaly.at = 0.0; series = "ddio.0.hit"; value = 0.1; reason = "shift" };
          ];
        sf_check "link series reported" true (Mon.Evidence.verdict ev 5 <> `Unknown);
        Alcotest.(check int) "non-link series ignored" 1 (Mon.Evidence.report_count ev));
  ]

(* {1 Heartbeat false positives: the thrash scenario the gate prevents} *)

let false_positive_tests =
  [
    tc "lossy probes on a healthy mesh never corroborate" (fun () ->
        let topo, sim, fab = fresh ~seed:7 () in
        (* a small probe mesh so a lying agent can black out every path
           over its leaf link in a single round — the only way localize
           produces a suspect at all — without needing near-total loss.
           The liar's leaf link must be crossed by liar pairs only, so
           healthy pairs can't exonerate it: no [ext] in the mesh *)
        let devices =
          List.map
            (fun n -> (T.Topology.device_named topo n).T.Device.id)
            [ "nic0"; "gpu0"; "ssd0"; "ssd1" ]
        in
        let hb = Mon.Heartbeat.start fab ~devices () in
        let ev = Mon.Evidence.create fab in
        run_for sim (U.Units.ms 6.0) (* baseline warm-up *);
        (* one corrupted probe agent, zero real faults *)
        E.Fabric.inject_sensor_fault fab
          (E.Sensorfault.Device (T.Topology.device_named topo "nic0").T.Device.id)
          (E.Sensorfault.probe_corruption ~loss:0.5 ());
        let max_confidence = ref 0.0 in
        let accused = ref 0 in
        for _ = 1 to 300 do
          run_for sim (U.Units.ms 1.0);
          let suspects = Mon.Heartbeat.localize hb in
          List.iter
            (fun (s : Mon.Heartbeat.suspect) ->
              incr accused;
              max_confidence := Float.max !max_confidence s.Mon.Heartbeat.confidence)
            suspects;
          Mon.Evidence.feed_heartbeat ev suspects;
          List.iter
            (fun (l : T.Link.t) ->
              sf_check "gate never promotes a single lying modality past Suspected" false
                (gate_is_corroborated (Mon.Evidence.verdict ev l.T.Link.id)))
            (T.Topology.links topo)
        done;
        sf_check "the liar did manufacture accusations" true (!accused > 0);
        (* a dead link would score 1.0 across the history window; a
           coin-flip liar only surfaces on blackout rounds and the
           healthy crossings around them hold confidence near the loss
           rate *)
        sf_check
          (Printf.sprintf
             "coverage discounting keeps false-positive confidence low (max %.2f)"
             !max_confidence)
          true
          (!max_confidence < 0.8));
  ]

(* {1 Migration rate limiter} *)

let rate_limiter_tests =
  [
    tc "an empty token bucket blocks Replace/Degrade even when corroborated" (fun () ->
        let host, p = load_host () in
        let config =
          {
            R.Remediation.default_config with
            R.Remediation.migration_budget = 0.0;
            migration_refill = U.Units.ms 1000.0;
          }
        in
        let rem =
          Ihnet.Host.enable_remediation host ~config
            ~wiring:{ Ihnet.Host.default_wiring with Ihnet.Host.heartbeat = false }
            ()
        in
        (* no evidence gate: without one every verdict counts as
           corroborated, so only the bucket stands between the case and
           a migration *)
        let bad = hop_link p 1 in
        E.Fabric.inject_fault (Ihnet.Host.fabric host) bad
          (E.Fault.degrade ~capacity_factor:0.05 ());
        Ihnet.Host.run_for host (U.Units.ms 20.0);
        sf_check "case opened" true (R.Remediation.case_for rem bad <> None);
        sf_check "supervisor acted" true (R.Remediation.actions_count rem > 0);
        let migrations =
          List.filter
            (fun (a : R.Remediation.action) ->
              a.R.Remediation.impact
              && (a.R.Remediation.action_stage = R.Remediation.Replace
                 || a.R.Remediation.action_stage = R.Remediation.Degrade))
            (R.Remediation.actions rem)
        in
        Alcotest.(check int) "no migration landed" 0 (List.length migrations);
        sf_check "the block was recorded" true
          (List.exists
             (fun (a : R.Remediation.action) ->
               not a.R.Remediation.impact
               && String.length a.R.Remediation.detail >= 9
               && String.sub a.R.Remediation.detail 0 9 = "migration")
             (R.Remediation.actions rem)));
  ]

(* {1 Interleaving property: healthy links never lose traffic} *)

let check_floors mgr =
  let arb = R.Manager.arbiter mgr in
  let floors = List.map fst (R.Arbiter.installed_floors arb) in
  let attached =
    List.concat_map
      (fun (p : R.Placement.t) ->
        List.filter_map
          (fun (f : E.Flow.t) ->
            if f.E.Flow.state = E.Flow.Running then Some f.E.Flow.id else None)
          p.R.Placement.attached)
      (R.Manager.placements mgr)
    |> List.sort_uniq compare
  in
  List.for_all (fun id -> List.mem id attached) floors
  && List.for_all (fun id -> List.mem id floors) attached
  && List.for_all
       (fun (p : R.Placement.t) ->
         p.R.Placement.floor_scale > 0.0 && p.R.Placement.floor_scale <= 1.0)
       (R.Manager.placements mgr)

type icmd =
  | Link_fault of int * int
  | Link_clear of int
  | Sensor_fault of int * int
  | Sensor_clear
  | Advance of int

let arb_icmds =
  let open QCheck in
  let gen =
    Gen.list_size (Gen.int_range 12 24)
      (Gen.oneof
         [
           Gen.map2 (fun l s -> Link_fault (l, s)) (Gen.int_bound 20) (Gen.int_bound 2);
           Gen.map (fun l -> Link_clear l) (Gen.int_bound 20);
           Gen.map2 (fun d k -> Sensor_fault (d, k)) (Gen.int_bound 40) (Gen.int_bound 3);
           Gen.return Sensor_clear;
           Gen.map (fun u -> Advance u) (Gen.int_range 1 4);
         ])
  in
  make ~print:(fun l -> Printf.sprintf "%d cmd(s)" (List.length l)) gen

let run_interleaving cmds =
  let host = Ihnet.Host.create ~seed:23 Ihnet.Host.Two_socket in
  let fab = Ihnet.Host.fabric host in
  let mgr = Ihnet.Host.enable_manager host () in
  List.iter
    (fun intent ->
      match Ihnet.Host.submit_intent host intent with
      | Ok ps ->
        List.iter
          (fun (p : R.Placement.t) ->
            let f =
              E.Fabric.start_flow fab ~tenant:p.R.Placement.tenant ~demand:p.R.Placement.rate
                ~path:p.R.Placement.path ~size:E.Flow.Unbounded ()
            in
            ignore (R.Manager.attach mgr f))
          ps
      | Error e -> QCheck.Test.fail_reportf "admission refused: %s" (R.Mgr_error.to_string e))
    [
      R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:(U.Units.gbytes_per_s 8.0);
      R.Intent.pipe ~tenant:2 ~src:"gpu0" ~dst:"socket0" ~rate:(U.Units.gbytes_per_s 4.0);
    ];
  let rem =
    Ihnet.Host.enable_remediation host
      ~wiring:{ Ihnet.Host.default_wiring with Ihnet.Host.evidence = true }
      ()
  in
  ignore (Ihnet.Host.start_monitoring host ());
  let topo = Ihnet.Host.topology host in
  let pcie =
    List.filter
      (fun (l : T.Link.t) -> match l.T.Link.kind with T.Link.Pcie _ -> true | _ -> false)
      (T.Topology.links topo)
    |> Array.of_list
  in
  let devices = Array.of_list (List.map (fun d -> d.T.Device.id) (T.Topology.devices topo)) in
  let ever_faulted = Hashtbl.create 16 in
  let factors = [| 0.05; 0.2; 0.5 |] in
  List.iter
    (fun cmd ->
      (match cmd with
      | Link_fault (l, s) ->
        let link = pcie.(l mod Array.length pcie).T.Link.id in
        Hashtbl.replace ever_faulted link ();
        E.Fabric.inject_fault fab link (E.Fault.degrade ~capacity_factor:factors.(s) ())
      | Link_clear l -> E.Fabric.clear_fault fab pcie.(l mod Array.length pcie).T.Link.id
      | Sensor_fault (d, k) -> (
        let device = devices.(d mod Array.length devices) in
        match k with
        | 0 ->
          E.Fabric.inject_sensor_fault fab (E.Sensorfault.Device device)
            (E.Sensorfault.probe_corruption ~loss:0.85 ())
        | 1 ->
          E.Fabric.inject_sensor_fault fab (E.Sensorfault.Device device)
            (E.Sensorfault.drifting ~factor:3.0)
        | 2 ->
          let link = pcie.(d mod Array.length pcie).T.Link.id in
          E.Fabric.inject_sensor_fault fab
            (E.Sensorfault.Series (Mon.Sampler.bytes_series link T.Link.Fwd))
            E.Sensorfault.stuck_at
        | _ ->
          E.Fabric.inject_sensor_fault fab (E.Sensorfault.Device device)
            (E.Sensorfault.lossy ~drop_prob:0.3 ~dup_prob:0.1 ()))
      | Sensor_clear -> (
        match E.Fabric.sensor_faults fab with
        | [] -> ()
        | (tg, _) :: _ -> E.Fabric.clear_sensor_fault fab tg)
      | Advance chunks ->
        Ihnet.Host.run_for host (U.Units.us (float_of_int (chunks * 100)));
        R.Remediation.tick rem);
      Ihnet.Host.run_for host (U.Units.us 50.0))
    cmds;
  E.Fabric.clear_all_faults fab;
  E.Fabric.clear_all_sensor_faults fab;
  Ihnet.Host.run_for host (U.Units.ms 5.0);
  if not (check_floors mgr) then QCheck.Test.fail_report "floor accounting drifted";
  let offenders =
    List.filter
      (fun (a : R.Remediation.action) ->
        a.R.Remediation.impact
        && (a.R.Remediation.action_stage = R.Remediation.Replace
           || a.R.Remediation.action_stage = R.Remediation.Degrade)
        && not (Hashtbl.mem ever_faulted a.R.Remediation.action_link))
      (R.Remediation.actions rem)
  in
  if offenders <> [] then
    QCheck.Test.fail_reportf "%d migration(s) off never-faulted links" (List.length offenders);
  true

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"sensor + link fault interleavings keep floors and never migrate healthy links"
         ~count:10 arb_icmds run_interleaving);
  ]

let suites =
  [
    ("sensorfault", sensorfault_tests);
    ("sensor-trace-codec", codec_tests);
    ("sensor-replay", replay_tests);
    ("telemetry-validity", telemetry_tests);
    ("sensor-health", health_tests);
    ("evidence", evidence_tests);
    ("heartbeat-false-positives", false_positive_tests);
    ("migration-rate-limit", rate_limiter_tests);
    ("evidence-interleavings", property_tests);
  ]
