(* Unit and integration tests for ihnet_monitor. *)

open Ihnet_monitor
module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload

let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let make_host ?config () =
  let topo = T.Builder.two_socket_server ?config () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  (topo, sim, fab)

let first_link (p : T.Path.t) =
  match p.T.Path.hops with
  | h :: _ -> (h.T.Path.link.T.Link.id, h.T.Path.dir)
  | [] -> Alcotest.fail "empty path"

(* {1 Counter fidelity} *)

let counter_tests =
  [
    tc "hardware fidelity hides per-tenant bytes" (fun () ->
        let topo, sim, fab = make_host () in
        let c = Counter.create fab ~fidelity:(Counter.Hardware { max_read_hz = 1000.0 }) in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        ignore (E.Fabric.start_flow fab ~tenant:3 ~path:p ~size:E.Flow.Unbounded ());
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let link, dir = first_link p in
        let r = Counter.read c link dir ~tenants:[ 3 ] in
        Alcotest.(check bool) "bytes visible" true (r.Counter.wire_bytes > 0.0);
        Alcotest.(check (list (pair int (float 0.0)))) "no tenant view" [] r.Counter.per_tenant);
    tc "software fidelity sees tenants but not induced traffic" (fun () ->
        let topo, sim, fab = make_host () in
        let c = Counter.create fab ~fidelity:Counter.Software in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        ignore (E.Fabric.start_flow fab ~tenant:3 ~path:p ~size:E.Flow.Unbounded ());
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let link, dir = first_link p in
        let r = Counter.read c link dir ~tenants:[ 3 ] in
        (match r.Counter.per_tenant with
        | [ (3, b) ] -> Alcotest.(check bool) "tenant bytes" true (b > 0.0)
        | _ -> Alcotest.fail "expected tenant 3 attribution");
        Alcotest.(check bool) "ddio hidden" true (Counter.ddio_hit_rate c ~socket:0 = None));
    tc "hardware reads are rate limited (stale reads)" (fun () ->
        let topo, sim, fab = make_host () in
        let c = Counter.create fab ~fidelity:(Counter.Hardware { max_read_hz = 1000.0 }) in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        ignore (E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded ());
        let link, dir = first_link p in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let r1 = Counter.read c link dir ~tenants:[] in
        (* 10 us later: below the 1 ms min interval -> same stale value *)
        E.Sim.run ~until:(U.Units.ms 1.0 +. U.Units.us 10.0) sim;
        let r2 = Counter.read c link dir ~tenants:[] in
        Alcotest.(check (float 0.0)) "stale" r1.Counter.wire_bytes r2.Counter.wire_bytes;
        (* 2 ms later: fresh *)
        E.Sim.run ~until:(U.Units.ms 3.0) sim;
        let r3 = Counter.read c link dir ~tenants:[] in
        Alcotest.(check bool) "fresh" true (r3.Counter.wire_bytes > r1.Counter.wire_bytes));
    tc "create refuses a negative or NaN noise" (fun () ->
        let _, _, fab = make_host () in
        List.iter
          (fun noise ->
            match Counter.create ~noise fab ~fidelity:Counter.Oracle with
            | _ -> Alcotest.failf "noise %g accepted" noise
            | exception Invalid_argument m ->
              Alcotest.(check string) "names the field"
                (Printf.sprintf "Counter.create: noise must be >= 0 (got %g)" noise)
                m)
          [ -0.5; Float.nan ];
        (* exact counters are the default *)
        ignore (Counter.create ~noise:0.0 fab ~fidelity:Counter.Oracle));
    tc "oracle sees everything" (fun () ->
        let topo, sim, fab = make_host () in
        let c = Counter.create fab ~fidelity:Counter.Oracle in
        let p = T.Routing.route topo "nic0" "socket0" in
        ignore (E.Fabric.start_flow fab ~tenant:2 ~llc_target:true ~path:p ~size:E.Flow.Unbounded ());
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        Alcotest.(check bool) "ddio visible" true (Counter.ddio_hit_rate c ~socket:0 <> None);
        let link, dir = first_link p in
        let r = Counter.read c link dir ~tenants:[ 2 ] in
        Alcotest.(check bool) "tenant visible" true (r.Counter.per_tenant <> []));
  ]

(* {1 Telemetry} *)

let telemetry_tests =
  [
    tc "record and query" (fun () ->
        let tm = Telemetry.create () in
        Telemetry.record tm ~series:"a" ~at:1.0 10.0;
        Telemetry.record tm ~series:"a" ~at:2.0 20.0;
        Alcotest.(check int) "len" 2 (Telemetry.length tm ~series:"a");
        (match Telemetry.latest tm ~series:"a" with
        | Some s -> Alcotest.(check (float 0.0)) "latest" 20.0 s.Telemetry.value
        | None -> Alcotest.fail "no latest");
        Alcotest.(check (list string)) "names" [ "a" ] (Telemetry.series_names tm));
    tc "window filters by time" (fun () ->
        let tm = Telemetry.create () in
        List.iter (fun i -> Telemetry.record tm ~series:"s" ~at:(float_of_int i) 0.0) [ 1; 2; 3; 4 ];
        Alcotest.(check int) "since 3" 2 (List.length (Telemetry.window tm ~series:"s" ~since:3.0)));
    tc "rate_of_change derives bytes/s" (fun () ->
        let tm = Telemetry.create () in
        Telemetry.record tm ~series:"bytes" ~at:0.0 0.0;
        Telemetry.record tm ~series:"bytes" ~at:1e9 5e9;
        match Telemetry.rate_of_change tm ~series:"bytes" with
        | Some r -> Alcotest.(check (float 1.0)) "5 GB/s" 5e9 r
        | None -> Alcotest.fail "expected rate");
    tc "capacity bound drops oldest" (fun () ->
        let tm = Telemetry.create ~capacity_per_series:4 () in
        for i = 1 to 10 do
          Telemetry.record tm ~series:"x" ~at:(float_of_int i) (float_of_int i)
        done;
        Alcotest.(check int) "bounded" 4 (Telemetry.length tm ~series:"x");
        Alcotest.(check int) "dropped" 6 (Telemetry.dropped_samples tm);
        Alcotest.(check int) "footprint" 4 (Telemetry.memory_samples tm));
    tc "dropped_samples accumulates across series" (fun () ->
        let tm = Telemetry.create ~capacity_per_series:3 () in
        let fill series n =
          for i = 1 to n do
            Telemetry.record tm ~series ~at:(float_of_int i) (float_of_int i)
          done
        in
        fill "x" 5;
        fill "y" 4;
        fill "z" 2;
        Alcotest.(check int) "x+y overflowed, z did not" 3 (Telemetry.dropped_samples tm);
        Alcotest.(check int) "retained" 8 (Telemetry.memory_samples tm));
    tc "window and values only see retained samples after wraparound" (fun () ->
        let tm = Telemetry.create ~capacity_per_series:4 () in
        for i = 1 to 10 do
          Telemetry.record tm ~series:"w" ~at:(float_of_int i) (10.0 *. float_of_int i)
        done;
        (* samples 1..6 were overwritten: since the beginning of time
           still yields only the surviving tail, oldest first *)
        let w = Telemetry.window tm ~series:"w" ~since:0.0 in
        Alcotest.(check (list (float 0.0)))
          "retained tail" [ 7.0; 8.0; 9.0; 10.0 ]
          (List.map (fun s -> s.Telemetry.at) w);
        Alcotest.(check (list (float 0.0)))
          "values oldest first" [ 70.0; 80.0; 90.0; 100.0 ]
          (Array.to_list (Telemetry.values tm ~series:"w")));
    tc "rate_of_change is unconfused by wraparound" (fun () ->
        let tm = Telemetry.create ~capacity_per_series:2 () in
        (* a cumulative counter whose early history is long gone *)
        List.iter
          (fun (at, v) -> Telemetry.record tm ~series:"c" ~at v)
          [ (0.0, 0.0); (1e9, 1e9); (2e9, 3e9); (3e9, 6e9) ];
        match Telemetry.rate_of_change tm ~series:"c" with
        | Some r -> Alcotest.(check (float 1.0)) "last two samples only" 3e9 r
        | None -> Alcotest.fail "expected a rate");
    tc "create refuses a non-positive capacity" (fun () ->
        List.iter
          (fun capacity_per_series ->
            match Telemetry.create ~capacity_per_series () with
            | _ -> Alcotest.failf "capacity %d accepted" capacity_per_series
            | exception Invalid_argument m ->
              Alcotest.(check string) "names the field"
                (Printf.sprintf "Telemetry.create: capacity_per_series must be > 0 (got %d)"
                   capacity_per_series)
                m)
          [ 0; -3 ]);
    tc "an interned handle is invisible until its first sample" (fun () ->
        let tm = Telemetry.create () in
        let h = Telemetry.handle tm "x" in
        Alcotest.(check string) "name" "x" (Telemetry.name h);
        Alcotest.(check (list string)) "no names" [] (Telemetry.series_names tm);
        Alcotest.(check int) "no samples" 0 (Telemetry.memory_samples tm);
        Alcotest.(check bool) "no latest" true (Telemetry.latest tm ~series:"x" = None);
        Alcotest.(check string) "empty csv" "series,at_ns,value\n" (Telemetry.to_csv tm);
        Telemetry.push h ~at:1.0 2.0;
        Alcotest.(check (list string)) "named once sampled" [ "x" ] (Telemetry.series_names tm);
        Alcotest.(check string) "csv" "series,at_ns,value\nx,1,2\n" (Telemetry.to_csv tm));
    prop "length never exceeds capacity" QCheck.(pair (int_range 1 20) (list small_int))
      (fun (cap, xs) ->
        let tm = Telemetry.create ~capacity_per_series:cap () in
        List.iteri (fun i x -> Telemetry.record tm ~series:"s" ~at:(float_of_int i) (float_of_int x)) xs;
        let n = List.length xs in
        Telemetry.length tm ~series:"s" = min cap n
        && Telemetry.memory_samples tm = min cap n
        && Telemetry.dropped_samples tm = max 0 (n - cap));
    prop "window is the newest-cap suffix of the writes"
      QCheck.(pair (int_range 1 16) (list small_int))
      (fun (cap, xs) ->
        (* half the writes go through the name, half through the
           handle: both reach the one ring *)
        let tm = Telemetry.create ~capacity_per_series:cap () in
        let h = Telemetry.handle tm "s" in
        List.iteri
          (fun i x ->
            let at = float_of_int i and v = float_of_int x in
            if i mod 2 = 0 then Telemetry.record tm ~series:"s" ~at v else Telemetry.push h ~at v)
          xs;
        let n = List.length xs in
        let expect =
          List.filteri (fun i _ -> i >= n - cap) (List.mapi (fun i x -> (float_of_int i, float_of_int x)) xs)
        in
        List.map
          (fun s -> (s.Telemetry.at, s.Telemetry.value))
          (Telemetry.window tm ~series:"s" ~since:neg_infinity)
        = expect
        && Telemetry.dropped_samples tm = max 0 (n - cap));
    prop "values, latest, rate and last_update agree with window"
      QCheck.(pair (int_range 1 16) (list small_int))
      (fun (cap, xs) ->
        let tm = Telemetry.create ~capacity_per_series:cap () in
        List.iteri
          (fun i x -> Telemetry.record tm ~series:"s" ~at:(1e9 *. float_of_int i) (float_of_int x))
          xs;
        let w = Telemetry.window tm ~series:"s" ~since:neg_infinity in
        let last = match List.rev w with s :: _ -> Some s | [] -> None in
        let rate =
          match List.rev w with
          | b :: a :: _ -> Some (b.Telemetry.value -. a.Telemetry.value)
          | _ -> None
        in
        Array.to_list (Telemetry.values tm ~series:"s") = List.map (fun s -> s.Telemetry.value) w
        && Telemetry.latest tm ~series:"s" = last
        && Telemetry.rate_of_change tm ~series:"s" = rate
        && Telemetry.last_update tm ~series:"s" = Option.map (fun s -> s.Telemetry.at) last);
    tc "to_csv orders by series name then time" (fun () ->
        let tm = Telemetry.create () in
        (* interleaved, registered b-first: output must still be sorted *)
        Telemetry.record tm ~series:"b" ~at:2.0 1.0;
        Telemetry.record tm ~series:"a" ~at:1.0 2.0;
        Telemetry.record tm ~series:"b" ~at:1.0 3.0;
        Telemetry.record tm ~series:"a" ~at:2.0 4.0;
        let csv = Telemetry.to_csv tm in
        Alcotest.(check string)
          "sorted csv" "series,at_ns,value\na,1,2\na,2,4\nb,1,3\nb,2,1\n" csv;
        Alcotest.(check string)
          "explicit selection keeps caller order"
          "series,at_ns,value\nb,1,3\nb,2,1\na,1,2\na,2,4\n"
          (Telemetry.to_csv ~series:[ "b"; "a" ] tm));
  ]

(* {1 Fleet ranking and snapshot stability} *)

let fleet_member ?(busy = false) label =
  let topo, sim, fab = make_host () in
  if busy then
    ignore (E.Fabric.start_flow fab ~tenant:1 ~path:(T.Routing.route topo "nic0" "socket0")
              ~size:E.Flow.Unbounded ());
  ignore sim;
  { Fleet.label; counter = Counter.create fab ~fidelity:Counter.Software; tenants = [ 1 ]; slo = None }

let fleet_tests =
  [
    tc "worst host first" (fun () ->
        let t =
          Fleet.collect
            [ fleet_member "calm-a"; fleet_member ~busy:true "hot"; fleet_member "calm-b" ]
        in
        (match t.Fleet.hosts with
        | first :: _ ->
          Alcotest.(check string) "congested host leads" "hot" first.Fleet.label;
          Alcotest.(check bool) "it is congested" true (first.Fleet.congested_links > 0)
        | [] -> Alcotest.fail "empty fleet");
        Alcotest.(check (list string))
          "attention list" [ "hot" ]
          (List.map (fun s -> s.Fleet.label) (Fleet.needs_attention t)));
    tc "equal severity ranks by label, not hash order" (fun () ->
        let labels = [ "node-d"; "node-b"; "node-e"; "node-a"; "node-c" ] in
        let t = Fleet.collect (List.map fleet_member labels) in
        Alcotest.(check (list string))
          "ties alphabetical" (List.sort compare labels)
          (List.map (fun s -> s.Fleet.label) t.Fleet.hosts));
    tc "top talkers break rate ties by tenant" (fun () ->
        let topo, _, fab = make_host () in
        let p = T.Routing.route topo "nic0" "socket0" in
        (* same path, same limits: the shares are bit-identical *)
        List.iter
          (fun tenant ->
            ignore (E.Fabric.start_flow fab ~tenant ~path:p ~size:E.Flow.Unbounded ()))
          [ 4; 2; 3; 1 ];
        let c = Counter.create fab ~fidelity:Counter.Software in
        let h = Health.collect c ~tenants:[ 1; 2; 3; 4 ] () in
        Alcotest.(check (list int))
          "tenant order deterministic" [ 1; 2; 3; 4 ]
          (List.map (fun (t : Health.talker) -> t.Health.tenant) h.Health.top_talkers));
    tc "health snapshots of a steady host are stable" (fun () ->
        let topo, _, fab = make_host () in
        let p = T.Routing.route topo "nic0" "socket0" in
        ignore (E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded ());
        ignore (E.Fabric.start_flow fab ~tenant:2 ~path:p ~size:E.Flow.Unbounded ());
        let c = Counter.create fab ~fidelity:Counter.Software in
        let shape (h : Health.t) =
          ( List.map (fun (c : Health.congested_link) -> (c.Health.link, c.Health.dir)) h.Health.congested,
            List.map (fun (t : Health.talker) -> t.Health.tenant) h.Health.top_talkers )
        in
        let h1 = Health.collect c ~tenants:[ 1; 2 ] () in
        let h2 = Health.collect c ~tenants:[ 1; 2 ] () in
        Alcotest.(check (pair (list (pair int bool)) (list int)))
          "consecutive windows agree"
          (let cs, ts = shape h1 in
           (List.map (fun (l, d) -> (l, d = T.Link.Rev)) cs, ts))
          (let cs, ts = shape h2 in
           (List.map (fun (l, d) -> (l, d = T.Link.Rev)) cs, ts)));
    tc "config findings are stable across identical hosts" (fun () ->
        let f1 = (fleet_member "a").Fleet.counter in
        let f2 = (fleet_member "b").Fleet.counter in
        let findings c = Anomaly.check_configuration (E.Fabric.topology (Counter.fabric c)) in
        Alcotest.(check (list string)) "same topology, same findings" (findings f1) (findings f2);
        Alcotest.(check (list string)) "re-check is a fixpoint" (findings f1) (findings f1));
  ]

(* {1 Sampler} *)

let sampler_tests =
  [
    tc "sampler populates series at the configured period" (fun () ->
        let _, sim, fab = make_host () in
        let config = { (Sampler.default_config ()) with Sampler.period = U.Units.us 100.0 } in
        let s = Sampler.start fab config in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        Alcotest.(check bool) "ticked ~10x" true (Sampler.ticks s >= 9 && Sampler.ticks s <= 11);
        let names = Telemetry.series_names (Sampler.telemetry s) in
        Alcotest.(check bool) "has util series" true
          (List.exists (fun n -> n = Sampler.util_series 0 T.Link.Fwd) names);
        Sampler.stop s);
    tc "an idle DGX tick stores flat samples and allocates little" (fun () ->
        let sim = E.Sim.create () in
        let fab = E.Fabric.create sim (T.Builder.dgx_like ()) in
        let config = Sampler.default_config () in
        let s = Sampler.start fab config in
        let run ticks =
          E.Sim.run ~until:(E.Sim.now sim +. (float_of_int ticks *. config.Sampler.period)) sim
        in
        run 1024;
        Alcotest.(check int) "store full" 1024 (Sampler.ticks s);
        let tm = Sampler.telemetry s in
        let words = Obj.reachable_words (Obj.repr tm) in
        let per_sample = float_of_int words /. float_of_int (Telemetry.memory_samples tm) in
        Alcotest.(check bool)
          (Printf.sprintf "%.3f words per retained sample <= 2.1" per_sample)
          true (per_sample <= 2.1);
        let w0 = Gc.minor_words () in
        run 100;
        let per_tick = (Gc.minor_words () -. w0) /. 100.0 in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f minor words per tick <= 4000" per_tick)
          true (per_tick <= 4000.0));
    (* [health] judges every bytes ring, and on an idle host every one
       is constant, so each also reads its util ring. It reads both in
       place: built as sample lists, one call cost 1.7M words here. *)
    tc "health over a full idle DGX store reads the rings in place" (fun () ->
        let sim = E.Sim.create () in
        let fab = E.Fabric.create sim (T.Builder.dgx_like ()) in
        let config = Sampler.default_config () in
        let s = Sampler.start fab config in
        E.Sim.run ~until:(1024.0 *. config.Sampler.period) sim;
        Alcotest.(check int) "store full" 1024 (Sampler.ticks s);
        let w0 = Gc.minor_words () in
        let verdicts = Sampler.health s in
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check int) "no verdicts on an idle host" 0 (List.length verdicts);
        Alcotest.(check bool)
          (Printf.sprintf "%.0f minor words per call <= 10000" words)
          true (words <= 10_000.0));
    tc "start refuses a non-positive or NaN period" (fun () ->
        let _, _, fab = make_host () in
        List.iter
          (fun period ->
            match Sampler.start fab { (Sampler.default_config ()) with Sampler.period } with
            | _ -> Alcotest.failf "period %g accepted" period
            | exception Invalid_argument m ->
              Alcotest.(check string) "names the field"
                (Printf.sprintf "Sampler.start: period must be > 0 (got %g)" period)
                m)
          [ 0.0; -5.0; Float.nan ]);
    tc "local processing burns cpu time" (fun () ->
        let _, sim, fab = make_host () in
        let config =
          {
            (Sampler.default_config ()) with
            Sampler.processing = Sampler.Local { cost_per_sample = 100.0 };
          }
        in
        let s = Sampler.start fab config in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        Alcotest.(check bool) "cpu burned" true (Sampler.cpu_time_consumed s > 0.0);
        Alcotest.(check (float 0.0)) "nothing shipped" 0.0 (Sampler.shipping_rate s);
        Sampler.stop s);
    tc "shipping consumes fabric bandwidth as Monitoring class" (fun () ->
        let _, sim, fab = make_host () in
        let config =
          {
            (Sampler.default_config ()) with
            Sampler.processing = Sampler.Ship { collector = "socket0"; bytes_per_sample = 64.0 };
          }
        in
        let s = Sampler.start fab config in
        E.Sim.run ~until:(U.Units.ms 2.0) sim;
        Alcotest.(check bool) "shipping rate" true (Sampler.shipping_rate s > 0.0);
        Alcotest.(check bool) "wire bytes" true (Sampler.monitoring_wire_bytes s > 0.0);
        Sampler.stop s;
        Alcotest.(check (float 0.0)) "stopped" 0.0 (Sampler.shipping_rate s));
    tc "faster sampling ships more" (fun () ->
        let run period =
          let _, sim, fab = make_host () in
          let config =
            {
              (Sampler.default_config ()) with
              Sampler.period;
              processing = Sampler.Ship { collector = "socket0"; bytes_per_sample = 64.0 };
            }
          in
          let s = Sampler.start fab config in
          E.Sim.run ~until:(U.Units.ms 2.0) sim;
          Sampler.shipping_rate s
        in
        Alcotest.(check bool) "10x" true (run (U.Units.us 10.0) > run (U.Units.us 100.0) *. 5.0));
  ]

(* {1 Heartbeat + localization} *)

let heartbeat_tests =
  [
    tc "healthy fabric: no failures, no suspects" (fun () ->
        let _, sim, fab = make_host () in
        let hb = Heartbeat.start fab () in
        E.Sim.run ~until:(U.Units.ms 20.0) sim;
        Alcotest.(check bool) "rounds" true (Heartbeat.rounds hb > 10);
        Alcotest.(check (list (pair int int))) "no failures" [] (Heartbeat.failing_pairs hb);
        Alcotest.(check bool) "no suspects" true (Heartbeat.localize hb = []);
        Alcotest.(check bool) "no detection" true (Heartbeat.first_detection hb = None);
        Heartbeat.stop hb);
    tc "silent switch degradation is detected and localized" (fun () ->
        let topo, sim, fab = make_host () in
        let hb = Heartbeat.start fab () in
        E.Sim.run ~until:(U.Units.ms 10.0) sim;
        (* degrade the rp0.0 - pciesw0 upstream link: extra 2 us silently *)
        let bad_link = (T.Topology.link_named topo "rp0.0" "pciesw0").T.Link.id in
        E.Fabric.inject_fault fab bad_link
          (E.Fault.degrade ~capacity_factor:1.0 ~extra_latency:(U.Units.us 2.0) ());
        E.Sim.run ~until:(U.Units.ms 15.0) sim;
        (match Heartbeat.first_detection hb with
        | Some at ->
          Alcotest.(check bool) "detected soon after injection" true
            (at >= U.Units.ms 10.0 && at <= U.Units.ms 13.0)
        | None -> Alcotest.fail "not detected");
        (match Heartbeat.localize hb with
        | (top :: _) as suspects ->
          (* serial links on the same probe paths are indistinguishable
             by boolean tomography: require the true link to be among
             the suspects at the maximal score *)
          let truth =
            List.find_opt (fun s -> s.Heartbeat.link = bad_link) suspects
          in
          (match truth with
          | Some s ->
            Alcotest.(check (float 1e-9)) "maximal score" top.Heartbeat.score s.Heartbeat.score
          | None -> Alcotest.fail "true link not suspected")
        | [] -> Alcotest.fail "no suspects");
        Heartbeat.stop hb);
    tc "link loss shows as lost probes" (fun () ->
        let topo, sim, fab = make_host () in
        let hb = Heartbeat.start fab () in
        E.Sim.run ~until:(U.Units.ms 10.0) sim;
        let bad_link = (T.Topology.link_named topo "rp0.1" "nic1").T.Link.id in
        E.Fabric.inject_fault fab bad_link E.Fault.down;
        E.Sim.run ~until:(U.Units.ms 13.0) sim;
        let lost =
          List.exists
            (fun (r : Heartbeat.probe_result) -> r.Heartbeat.outcome = `Lost)
            (Heartbeat.results hb)
        in
        Alcotest.(check bool) "lost probes" true lost;
        Heartbeat.stop hb);
    tc "a probing subset only watches its own paths" (fun () ->
        let topo, sim, fab = make_host () in
        (* only the two GPUs probe each other *)
        let hb =
          Heartbeat.start fab
            ~devices:
              [
                (T.Topology.device_named topo "gpu0").T.Device.id;
                (T.Topology.device_named topo "gpu1").T.Device.id;
              ]
            ()
        in
        E.Sim.run ~until:(U.Units.ms 10.0) sim;
        Alcotest.(check int) "two ordered pairs" 2 (List.length (Heartbeat.results hb));
        (* a fault on nic1's link is invisible to this mesh *)
        E.Fabric.inject_fault fab (T.Topology.link_named topo "rp0.1" "nic1").T.Link.id
          { E.Fault.capacity_factor = 1.0; extra_latency = U.Units.us 50.0; loss_prob = 0.0 };
        E.Sim.run ~until:(U.Units.ms 15.0) sim;
        Alcotest.(check bool) "blind outside its scope" true (Heartbeat.healthy hb);
        Heartbeat.stop hb);
    tc "probe traffic is accounted" (fun () ->
        let _, sim, fab = make_host () in
        let hb = Heartbeat.start fab () in
        E.Sim.run ~until:(U.Units.ms 5.0) sim;
        Alcotest.(check bool) "bytes" true (Heartbeat.probe_wire_bytes hb > 0.0);
        Heartbeat.stop hb);
    tc "start refuses a NaN or out-of-range field, naming it" (fun () ->
        let _, _, fab = make_host () in
        let base = Heartbeat.default_config () in
        Alcotest.check_raises "period"
          (Invalid_argument "Heartbeat.start: period must be > 0 (got nan)") (fun () ->
            ignore (Heartbeat.start fab ~config:{ base with Heartbeat.period = nan } ()));
        Alcotest.check_raises "rtt_factor"
          (Invalid_argument "Heartbeat.start: rtt_factor must be > 1 (got 1)") (fun () ->
            ignore (Heartbeat.start fab ~config:{ base with Heartbeat.rtt_factor = 1.0 } ()));
        Alcotest.check_raises "warmup_rounds"
          (Invalid_argument "Heartbeat.start: warmup_rounds must be >= 1 (got 0)") (fun () ->
            ignore (Heartbeat.start fab ~config:{ base with Heartbeat.warmup_rounds = 0 } ()));
        Alcotest.(check int) "no probe flow started" 0 (E.Fabric.flow_count fab));
  ]

(* {1 Anomaly platform} *)

let anomaly_tests =
  [
    tc "threshold detector fires on crossing" (fun () ->
        let a = Anomaly.create () in
        Anomaly.watch a ~series:"u" (Anomaly.Threshold { above = Some 0.9; below = None });
        Anomaly.observe a ~series:"u" ~at:1.0 0.5;
        Alcotest.(check bool) "quiet" true (Anomaly.alarms a = []);
        Anomaly.observe a ~series:"u" ~at:2.0 0.95;
        Alcotest.(check int) "fired" 1 (List.length (Anomaly.alarms a)));
    tc "ewma detector fires on spikes only after warm-up" (fun () ->
        let a = Anomaly.create () in
        Anomaly.watch a ~series:"lat" (Anomaly.Ewma_deviation { alpha = 0.2; k = 4.0 });
        let rng = U.Rng.create 5 in
        for i = 1 to 100 do
          Anomaly.observe a ~series:"lat" ~at:(float_of_int i) (100.0 +. U.Rng.gaussian rng 0.0 3.0)
        done;
        Alcotest.(check bool) "quiet in control" true (Anomaly.alarms a = []);
        Anomaly.observe a ~series:"lat" ~at:101.0 500.0;
        Alcotest.(check bool) "fired" true (Anomaly.alarms a <> []));
    tc "cusum catches small persistent shift" (fun () ->
        let a = Anomaly.create () in
        Anomaly.watch a ~series:"util" (Anomaly.Cusum { drift = 0.5; threshold = 5.0 });
        let rng = U.Rng.create 5 in
        for i = 1 to 50 do
          Anomaly.observe a ~series:"util" ~at:(float_of_int i) (0.5 +. U.Rng.gaussian rng 0.0 0.02)
        done;
        Alcotest.(check bool) "quiet" true (Anomaly.alarms a = []);
        for i = 51 to 90 do
          Anomaly.observe a ~series:"util" ~at:(float_of_int i) (0.58 +. U.Rng.gaussian rng 0.0 0.02)
        done;
        Alcotest.(check bool) "fired" true (Anomaly.alarms a <> []));
    tc "feed consumes telemetry incrementally" (fun () ->
        let a = Anomaly.create () in
        let tm = Telemetry.create () in
        Anomaly.watch a ~series:"x" (Anomaly.Threshold { above = Some 10.0; below = None });
        Telemetry.record tm ~series:"x" ~at:1.0 20.0;
        Anomaly.feed a tm;
        Alcotest.(check int) "one alarm" 1 (List.length (Anomaly.alarms a));
        (* feeding again without new samples must not duplicate *)
        Anomaly.feed a tm;
        Alcotest.(check int) "still one" 1 (List.length (Anomaly.alarms a));
        Telemetry.record tm ~series:"x" ~at:2.0 30.0;
        Anomaly.feed a tm;
        Alcotest.(check int) "two" 2 (List.length (Anomaly.alarms a)));
    tc "clean default config has no findings" (fun () ->
        let topo = T.Builder.two_socket_server () in
        Alcotest.(check (list string)) "clean" [] (Anomaly.check_configuration topo));
    tc "misconfigurations are reported" (fun () ->
        let config =
          {
            T.Hostconfig.default with
            T.Hostconfig.ddio = T.Hostconfig.Ddio_off;
            pcie_mps = 128;
            acs = true;
            interrupt_moderation = U.Units.us 50.0;
          }
        in
        let topo = T.Builder.two_socket_server ~config () in
        let findings = Anomaly.check_configuration topo in
        Alcotest.(check bool) "several" true (List.length findings >= 3));
  ]

(* {1 Root cause} *)

let rootcause_tests =
  [
    tc "names the aggressor tenant on the congested hop" (fun () ->
        let topo, sim, fab = make_host () in
        (* victim: kv-like path; aggressor: tenant 7 loopback via same subtree *)
        let victim_path = T.Routing.route topo "ext" "socket0" in
        ignore
          (E.Fabric.start_flow fab ~tenant:1 ~demand:1e8 ~path:victim_path
             ~size:E.Flow.Unbounded ());
        let agg = W.Rdma.start_loopback fab ~tenant:7 ~nic:"nic0" () in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let counter = Counter.create fab ~fidelity:Counter.Oracle in
        let before = Rootcause.snapshot counter ~tenants:[ 1; 7 ] in
        E.Sim.run ~until:(U.Units.ms 5.0) sim;
        let after = Rootcause.snapshot counter ~tenants:[ 1; 7 ] in
        let culprits = Rootcause.diagnose counter ~before ~after ~victim_path in
        (match Rootcause.top_aggressor culprits with
        | Some (tn, rate) ->
          Alcotest.(check int) "tenant 7" 7 tn;
          Alcotest.(check bool) "dominant" true (rate > 1e9)
        | None -> Alcotest.fail "no aggressor found");
        W.Rdma.stop_loopback agg);
    tc "snapshots must be ordered" (fun () ->
        let topo, sim, fab = make_host () in
        let counter = Counter.create fab ~fidelity:Counter.Oracle in
        let snap = Rootcause.snapshot counter ~tenants:[] in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let later = Rootcause.snapshot counter ~tenants:[] in
        let victim_path = T.Routing.route topo "ext" "socket0" in
        Alcotest.check_raises "order" (Invalid_argument "Rootcause.diagnose: snapshots out of order")
          (fun () -> ignore (Rootcause.diagnose counter ~before:later ~after:snap ~victim_path)));
    tc "hardware fidelity cannot name the aggressor" (fun () ->
        let topo, sim, fab = make_host () in
        (* the victim enters via nic0, where the aggressor sits *)
        let victim_path =
          T.Path.concat
            (T.Routing.route topo "ext" "nic0")
            (T.Routing.route topo "nic0" "socket0")
        in
        let agg = W.Rdma.start_loopback fab ~tenant:7 ~nic:"nic0" () in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let counter = Counter.create fab ~fidelity:(Counter.Hardware { max_read_hz = 1e6 }) in
        let before = Rootcause.snapshot counter ~tenants:[ 7 ] in
        E.Sim.run ~until:(U.Units.ms 5.0) sim;
        let after = Rootcause.snapshot counter ~tenants:[ 7 ] in
        let culprits = Rootcause.diagnose counter ~before ~after ~victim_path in
        (* congestion is visible... *)
        Alcotest.(check bool) "hop found" true
          (match culprits with c :: _ -> c.Rootcause.utilization > 0.9 | [] -> false);
        (* ...but nobody can be blamed *)
        Alcotest.(check bool) "no attribution" true
          (Rootcause.top_aggressor culprits = None);
        W.Rdma.stop_loopback agg);
  ]

(* {1 Diagnostics} *)

let diagnostics_tests =
  [
    tc "ping_once returns a plausible RTT" (fun () ->
        let _, _, fab = make_host () in
        match Diagnostics.ping_once fab ~src:"nic0" ~dst:"dimm0.0.0" with
        | Some rtt -> Alcotest.(check bool) "order of magnitude" true (rtt > 400.0 && rtt < 5_000.0)
        | None -> Alcotest.fail "lost on healthy fabric");
    tc "ping runs its schedule and reports" (fun () ->
        let _, sim, fab = make_host () in
        let finished = ref false in
        let report =
          Diagnostics.ping fab ~src:"nic0" ~dst:"socket0" ~count:20
            ~on_done:(fun _ -> finished := true)
            ()
        in
        E.Sim.run sim;
        Alcotest.(check bool) "done" true !finished;
        Alcotest.(check int) "sent" 20 report.Diagnostics.sent;
        Alcotest.(check int) "none lost" 0 report.Diagnostics.lost;
        Alcotest.(check int) "rtts" 20 (U.Sketch.count report.Diagnostics.rtts));
    tc "ping counts losses on a faulty path" (fun () ->
        let topo, sim, fab = make_host () in
        E.Fabric.inject_fault fab (T.Topology.link_named topo "rp0.1" "nic1").T.Link.id
          { E.Fault.capacity_factor = 1.0; extra_latency = 0.0; loss_prob = 0.5 };
        let report = Diagnostics.ping fab ~src:"nic1" ~dst:"socket0" ~count:100 () in
        E.Sim.run sim;
        Alcotest.(check bool) "some lost" true
          (report.Diagnostics.lost > 20 && report.Diagnostics.lost < 80));
    tc "trace decomposes the path per hop" (fun () ->
        let _, _, fab = make_host () in
        let hops = Diagnostics.trace fab ~src:"ext" ~dst:"dimm0.0.0" in
        Alcotest.(check bool) "several hops" true (List.length hops >= 5);
        let last = List.nth hops (List.length hops - 1) in
        Alcotest.(check string) "ends at dimm" "dimm0.0.0" last.Diagnostics.hop_device;
        List.iter
          (fun (h : Diagnostics.trace_hop) ->
            Alcotest.(check bool) "loaded >= base" true
              (h.Diagnostics.loaded_latency >= h.Diagnostics.base_latency))
          hops);
    tc "perf measures the bottleneck bandwidth" (fun () ->
        let _, sim, fab = make_host () in
        let got = ref None in
        Diagnostics.perf fab ~src:"nic0" ~dst:"dimm0.0.0" ~duration:(U.Units.ms 5.0)
          ~on_done:(fun r -> got := Some r)
          ();
        E.Sim.run sim;
        (match !got with
        | Some r ->
          (* DDR channel is the bottleneck: ~25.6 GB/s *)
          Alcotest.(check bool) "rate" true
            (r.Diagnostics.achieved_rate > 24e9 && r.Diagnostics.achieved_rate < 26e9);
          Alcotest.(check bool) "bottleneck reported" true (r.Diagnostics.bottleneck <> None)
        | None -> Alcotest.fail "no report");
        Alcotest.(check int) "probe flow cleaned up" 0 (E.Fabric.flow_count fab));
    tc "perf_now estimates without traffic" (fun () ->
        let _, _, fab = make_host () in
        let bw = Diagnostics.perf_now fab ~src:"gpu0" ~dst:"ssd0" in
        Alcotest.(check bool) "pcie-ish" true (bw > 20e9 && bw < 35e9));
    tc "dump captures flows on a link sorted by rate" (fun () ->
        let topo, sim, fab = make_host () in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        ignore (E.Fabric.start_flow fab ~tenant:1 ~cap:1e9 ~path:p ~size:E.Flow.Unbounded ());
        ignore (E.Fabric.start_flow fab ~tenant:2 ~path:p ~size:E.Flow.Unbounded ());
        E.Sim.run ~until:(U.Units.us 10.0) sim;
        let link, dir = first_link p in
        let captured = Diagnostics.dump fab ~link ~dir () in
        Alcotest.(check int) "two flows" 2 (List.length captured);
        (match captured with
        | a :: b :: _ ->
          Alcotest.(check bool) "sorted" true (a.Diagnostics.rate >= b.Diagnostics.rate);
          Alcotest.(check int) "big one is tenant 2" 2 a.Diagnostics.tenant
        | _ -> Alcotest.fail "expected two");
        (* direction filter: reverse dir sees nothing *)
        let captured_rev = Diagnostics.dump fab ~link ~dir:(T.Link.opposite dir) () in
        Alcotest.(check int) "dir filter" 0 (List.length captured_rev));
    tc "perf refuses a NaN or non-positive duration, naming it" (fun () ->
        let _, _, fab = make_host () in
        List.iter
          (fun (d, shown) ->
            Alcotest.check_raises shown
              (Invalid_argument ("Diagnostics.perf: duration must be > 0 (got " ^ shown ^ ")"))
              (fun () -> Diagnostics.perf fab ~src:"nic0" ~dst:"socket0" ~duration:d ()))
          [ (nan, "nan"); (0.0, "0"); (-1.0, "-1") ];
        Alcotest.(check int) "no probe flow started" 0 (E.Fabric.flow_count fab));
  ]

(* {1 Latency-percentile plane: telemetry, sampler, fleet, anomaly} *)

(* a member whose flow sketch holds exactly [values] (recorded through
   the fabric's own handle — the sketch plane is shared state, which is
   precisely what Fleet merges) *)
let sketch_member label values =
  let _, _, fab = make_host () in
  E.Fabric.enable_latency_sketches fab;
  (match E.Fabric.flow_latency_sketch fab with
  | Some sk -> List.iter (U.Sketch.record sk) values
  | None -> Alcotest.fail "sketch plane missing");
  { Fleet.label; counter = Counter.create fab ~fidelity:Counter.Software; tenants = [ 1 ]; slo = None }

let latency_plane_tests =
  [
    tc "telemetry pct snapshot roundtrips" (fun () ->
        let tm = Telemetry.create () in
        let sk = U.Sketch.create () in
        List.iter (U.Sketch.record sk) [ 10.0; 20.0; 30.0 ];
        let snap = U.Sketch.snapshot sk in
        Telemetry.record_pct tm ~series:"link.0.fwd.latency" ~at:1.0 snap;
        (match Telemetry.latest_pct tm ~series:"link.0.fwd.latency" with
        | Some got ->
          Alcotest.(check int) "count" 3 got.U.Sketch.s_count;
          Alcotest.(check (float 0.0)) "p99" snap.U.Sketch.s_p99 got.U.Sketch.s_p99;
          Alcotest.(check (float 0.0)) "max" snap.U.Sketch.s_max got.U.Sketch.s_max
        | None -> Alcotest.fail "roundtrip lost");
        Alcotest.(check bool) "fields are plain sub-series" true
          (List.mem "link.0.fwd.latency.p99" (Telemetry.series_names tm));
        Alcotest.(check bool) "unknown series reads None" true
          (match Telemetry.latest_pct tm ~series:"nope" with None -> true | Some _ -> false));
    tc "sampler ships latency percentiles when the plane is on" (fun () ->
        let topo, sim, fab = make_host () in
        E.Fabric.enable_latency_sketches fab;
        let p = T.Routing.route topo "nic0" "socket0" in
        ignore (E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded ());
        let s = Sampler.start fab (Sampler.default_config ()) in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let link, dir = first_link p in
        (match Telemetry.latest_pct (Sampler.telemetry s) ~series:(Sampler.latency_series link dir) with
        | Some snap -> Alcotest.(check bool) "samples" true (snap.U.Sketch.s_count > 0)
        | None -> Alcotest.fail "no latency snapshot in telemetry");
        Sampler.stop s);
    tc "dormant plane leaves telemetry latency-free" (fun () ->
        let topo, sim, fab = make_host () in
        let p = T.Routing.route topo "nic0" "socket0" in
        ignore (E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded ());
        let s = Sampler.start fab (Sampler.default_config ()) in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let has_latency =
          List.exists
            (fun n ->
              let needle = ".latency" in
              let ln = String.length needle and n_len = String.length n in
              let rec go i = i + ln <= n_len && (String.sub n i ln = needle || go (i + 1)) in
              go 0)
            (Telemetry.series_names (Sampler.telemetry s))
        in
        Alcotest.(check bool) "no latency series" false has_latency;
        Sampler.stop s);
    tc "fleet merges member sketches into fleet percentiles" (fun () ->
        let a = sketch_member "a" [ 100.0; 200.0; 300.0 ] in
        let b = sketch_member "b" [ 1000.0 ] in
        let calm = fleet_member "calm" (* dormant plane: no tail *) in
        let t = Fleet.collect [ b; calm; a ] in
        (match t.Fleet.fleet_tail with
        | Some s ->
          Alcotest.(check int) "merged count" 4 s.U.Sketch.s_count;
          Alcotest.(check (float 1e-9)) "max exact" 1000.0 s.U.Sketch.s_max;
          (* bit-identical to recording everything into one sketch *)
          let all = U.Sketch.create () in
          List.iter (U.Sketch.record all) [ 100.0; 200.0; 300.0; 1000.0 ];
          Alcotest.(check bool) "== single-sketch percentiles" true
            (Int64.bits_of_float s.U.Sketch.s_p99
            = Int64.bits_of_float (U.Sketch.snapshot all).U.Sketch.s_p99)
        | None -> Alcotest.fail "no fleet tail");
        let status label =
          match List.find_opt (fun (h : Fleet.host_status) -> h.Fleet.label = label) t.Fleet.hosts with
          | Some h -> h
          | None -> Alcotest.failf "host %s missing" label
        in
        Alcotest.(check bool) "member tail present" true ((status "a").Fleet.tail <> None);
        Alcotest.(check bool) "dormant member has none" true ((status "calm").Fleet.tail = None));
    tc "watch_tail alarms on a p99 breach" (fun () ->
        let tm = Telemetry.create () in
        let an = Anomaly.create () in
        Anomaly.watch_tail an ~series:"flow.latency" ~p99_above:500.0 ();
        let sk = U.Sketch.create () in
        List.iter (U.Sketch.record sk) [ 100.0; 120.0 ];
        Telemetry.record_pct tm ~series:"flow.latency" ~at:1.0 (U.Sketch.snapshot sk);
        Anomaly.feed an tm;
        Alcotest.(check int) "quiet under the bound" 0 (List.length (Anomaly.alarms an));
        List.iter (U.Sketch.record sk) (List.init 300 (fun _ -> 2000.0));
        Telemetry.record_pct tm ~series:"flow.latency" ~at:2.0 (U.Sketch.snapshot sk);
        Anomaly.feed an tm;
        match Anomaly.first_alarm an with
        | Some a -> Alcotest.(check string) "p99 sub-series fired" "flow.latency.p99" a.Anomaly.series
        | None -> Alcotest.fail "no alarm on breach");
  ]

let suites =
  [
    ("monitor.counter", counter_tests);
    ("monitor.telemetry", telemetry_tests);
    ("monitor.fleet", fleet_tests);
    ("monitor.sampler", sampler_tests);
    ("monitor.heartbeat", heartbeat_tests);
    ("monitor.anomaly", anomaly_tests);
    ("monitor.rootcause", rootcause_tests);
    ("monitor.diagnostics", diagnostics_tests);
    ("monitor.latency", latency_plane_tests);
  ]
