(* Regression tests for the arbiter lifecycle bugs (placement removal
   by identity, shim restart tick chains, floor pruning on
   self-completion) and behavior tests for the remediation supervisor's
   detect -> diagnose -> act loop. *)

open Ihnet_manager
module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util

let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let make_mgr () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  (sim, fab, Manager.create fab ())

let submit_one mgr intent =
  match Manager.submit mgr intent with
  | Ok [ p ] -> p
  | Ok _ -> Alcotest.fail "expected one placement"
  | Error e -> Alcotest.fail (Mgr_error.to_string e)

let run_for sim d = E.Sim.run ~until:(E.Sim.now sim +. d) sim

let start_on fab (p : Placement.t) ?(demand = infinity) ?(size = E.Flow.Unbounded) () =
  E.Fabric.start_flow fab ~tenant:p.Placement.tenant ~demand ~path:p.Placement.path ~size ()

let tenant_rate fab ~tenant =
  E.Fabric.refresh fab;
  List.fold_left
    (fun acc (f : E.Flow.t) ->
      if f.E.Flow.tenant = tenant && f.E.Flow.cls = E.Flow.Payload then acc +. f.E.Flow.rate
      else acc)
    0.0 (E.Fabric.active_flows fab)

let hop_link (p : Placement.t) n =
  (List.nth p.Placement.path.T.Path.hops n).T.Path.link.T.Link.id

(* {1 Arbiter lifecycle regressions} *)

let arbiter_regressions =
  [
    tc "remove_placement matches by stable id, not physical equality" (fun () ->
        (* the old physical-equality test silently kept a placement
           registered when the caller held a structural copy — the
           arbiter went on enforcing floors for a revoked guarantee *)
        let _, fab, mgr = make_mgr () in
        let arb = Manager.arbiter mgr in
        let p = submit_one mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:2e9) in
        let f = start_on fab p () in
        Alcotest.(check bool) "attached" true (Manager.attach mgr f);
        Alcotest.(check bool) "floor installed" true (Arbiter.guaranteed_of arb f > 0.0);
        let copy = { p with Placement.attached = p.Placement.attached } in
        Arbiter.remove_placement arb copy;
        Alcotest.(check int) "placement gone" 0 (List.length (Arbiter.placements arb));
        Alcotest.(check (list (pair int (float 0.0)))) "floors released" []
          (Arbiter.installed_floors arb));
    tc "stop_shim/start_shim leaves exactly one tick chain" (fun () ->
        (* the old tick closure only checked the boolean, so every
           stop/start pair added a concurrent chain, multiplying the
           enforcement rate *)
        let sim, fab, mgr = make_mgr () in
        let p = submit_one mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:2e9) in
        let f = start_on fab p () in
        ignore (Manager.attach mgr f);
        Manager.start_shim mgr ~period:(U.Units.us 50.0);
        run_for sim (U.Units.ms 1.0);
        let d0 = Manager.decisions mgr in
        run_for sim (U.Units.ms 1.0);
        let per_ms = Manager.decisions mgr - d0 in
        for _ = 1 to 3 do
          Manager.stop_shim mgr;
          Manager.start_shim mgr ~period:(U.Units.us 50.0)
        done;
        let d1 = Manager.decisions mgr in
        run_for sim (U.Units.ms 1.0);
        let per_ms_after = Manager.decisions mgr - d1 in
        (* the three immediate first ticks of the restarts may add a few
           decisions, but a surviving duplicate chain would double+ the
           steady rate *)
        Alcotest.(check bool)
          (Printf.sprintf "steady enforcement rate (%d/ms before, %d/ms after)" per_ms
             per_ms_after)
          true
          (per_ms_after < 2 * per_ms));
    tc "self-completed flow's floor and attachment are pruned" (fun () ->
        let sim, fab, mgr = make_mgr () in
        let arb = Manager.arbiter mgr in
        let p = submit_one mgr (Intent.pipe ~tenant:1 ~src:"gpu0" ~dst:"socket0" ~rate:2e9) in
        let f = start_on fab p ~size:(E.Flow.Bytes 1e6) () in
        ignore (Manager.attach mgr f);
        Alcotest.(check bool) "floor while running" true (Arbiter.guaranteed_of arb f > 0.0);
        run_for sim (U.Units.ms 5.0);
        Alcotest.(check bool) "completed" true (f.E.Flow.state = E.Flow.Completed);
        Alcotest.(check (list (pair int (float 0.0)))) "no stale floor" []
          (Arbiter.installed_floors arb);
        Alcotest.(check int) "attachment pruned" 0 (List.length p.Placement.attached));
    tc "stopped flow's floor is pruned via the fabric event" (fun () ->
        let _, fab, mgr = make_mgr () in
        let arb = Manager.arbiter mgr in
        let p = submit_one mgr (Intent.pipe ~tenant:1 ~src:"gpu0" ~dst:"socket0" ~rate:2e9) in
        let f = start_on fab p () in
        ignore (Manager.attach mgr f);
        E.Fabric.stop_flow fab f;
        Alcotest.(check (list (pair int (float 0.0)))) "no stale floor" []
          (Arbiter.installed_floors arb));
    tc "an idle shim costs at most 16 minor words per 1 ms advance" (fun () ->
        (* a fleet host between rounds: the manager's 50 µs shim, one
           placed pipe and no flow. Twenty idle passes per ms cost
           about 126 words; skipping them leaves one pass per advance *)
        let host = Ihnet.Host.create ~seed:5 Ihnet.Host.Minimal in
        (match
           Ihnet.Host.submit_intent host
             (Intent.pipe ~tenant:1 ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps 2.0))
         with
        | Ok [ _ ] -> ()
        | _ -> Alcotest.fail "submit failed");
        for _ = 1 to 10 do
          Ihnet.Host.run_for host (U.Units.ms 1.0)
        done;
        let n = 100 in
        let before = Gc.minor_words () in
        for _ = 1 to n do
          Ihnet.Host.run_for host (U.Units.ms 1.0)
        done;
        let per_ms = (Gc.minor_words () -. before) /. float_of_int n in
        if per_ms > 16.0 then
          Alcotest.failf "an idle 1 ms advance allocated %.1f minor words" per_ms);
  ]

(* {1 Floors-consistency property}

   Random attach/detach/complete/stop/restart-shim sequences must leave
   the floor table holding exactly the attached running flows. *)

let floors_consistent mgr =
  let arb = Manager.arbiter mgr in
  let floors = List.map fst (Arbiter.installed_floors arb) in
  let attached =
    List.concat_map
      (fun (p : Placement.t) ->
        List.filter_map
          (fun (f : E.Flow.t) ->
            if f.E.Flow.state = E.Flow.Running then Some f.E.Flow.id else None)
          p.Placement.attached)
      (Manager.placements mgr)
    |> List.sort_uniq compare
  in
  List.sort compare floors = attached

let arbiter_props =
  [
    prop "random flow churn keeps floors = attached running flows" ~count:60
      QCheck.(list_of_size Gen.(int_range 5 40) (int_range 0 99))
      (fun ops ->
        let sim, fab, mgr = make_mgr () in
        let p1 = submit_one mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:4e9) in
        let p2 = submit_one mgr (Intent.pipe ~tenant:2 ~src:"gpu0" ~dst:"socket0" ~rate:2e9) in
        Manager.start_shim mgr ~period:(U.Units.us 50.0);
        let live = ref [] in
        List.iter
          (fun op ->
            (match op mod 6 with
            | 0 | 1 ->
              (* bounded flow: may self-complete during a later advance *)
              let p = if op mod 2 = 0 then p1 else p2 in
              let f =
                start_on fab p ~demand:6e9 ~size:(E.Flow.Bytes (float_of_int (1 + op) *. 5e4)) ()
              in
              ignore (Manager.attach mgr f);
              live := f :: !live
            | 2 -> (
              match !live with
              | f :: rest ->
                E.Fabric.stop_flow fab f;
                live := rest
              | [] -> ())
            | 3 -> (
              match !live with
              | f :: _ -> Manager.detach mgr f
              | [] -> ())
            | 4 ->
              Manager.stop_shim mgr;
              Manager.start_shim mgr ~period:(U.Units.us 50.0)
            | _ -> ());
            run_for sim (U.Units.us (float_of_int (10 + op)));
            live := List.filter (fun (f : E.Flow.t) -> f.E.Flow.state = E.Flow.Running) !live)
          ops;
        run_for sim (U.Units.ms 1.0);
        floors_consistent mgr);
  ]

(* {1 Remediation supervisor} *)

let sick = E.Fault.degrade ~capacity_factor:0.05 ()

let remediation_tests =
  [
    tc "announced fault with an alternate path recovers via re-place" (fun () ->
        let sim, fab, mgr = make_mgr () in
        let rem = Remediation.create mgr in
        Remediation.start rem;
        let p = submit_one mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:10e9) in
        let f = start_on fab p ~demand:10e9 () in
        ignore (Manager.attach mgr f);
        run_for sim (U.Units.ms 1.0);
        let bad = hop_link p 1 in
        E.Fabric.inject_fault fab bad sick;
        run_for sim (U.Units.ms 10.0);
        (match Remediation.case_for rem bad with
        | None -> Alcotest.fail "no case opened"
        | Some c ->
          Alcotest.(check bool) "resolved" true (c.Remediation.status = Remediation.Resolved);
          Alcotest.(check bool) "escalated past re-arbitrate" true
            (c.Remediation.stage <> Remediation.Rearbitrate);
          Alcotest.(check bool) "recovery time recorded" true (c.Remediation.recovered_at <> None));
        Alcotest.(check bool) "placement moved off the sick link" true
          (not
             (List.exists
                (fun (h : T.Path.hop) -> h.T.Path.link.T.Link.id = bad)
                p.Placement.path.T.Path.hops));
        Alcotest.(check bool) "guarantee restored" true (tenant_rate fab ~tenant:1 >= 9.5e9));
    tc "no alternate path: floor degraded explicitly, restored on clear" (fun () ->
        let sim, fab, mgr = make_mgr () in
        let rem = Remediation.create mgr in
        Remediation.start rem;
        let p = submit_one mgr (Intent.pipe ~tenant:1 ~src:"gpu0" ~dst:"socket0" ~rate:10e9) in
        let f = start_on fab p ~demand:10e9 () in
        ignore (Manager.attach mgr f);
        run_for sim (U.Units.ms 1.0);
        let bad = hop_link p 1 in
        E.Fabric.inject_fault fab bad sick;
        run_for sim (U.Units.ms 20.0);
        Alcotest.(check bool) "floor explicitly degraded" true (p.Placement.floor_scale < 1.0);
        let report = Slo.check mgr in
        Alcotest.(check int) "no silent violation" 0 report.Slo.violations;
        Alcotest.(check int) "explicit degraded verdict" 1 report.Slo.degraded;
        E.Fabric.clear_fault fab bad;
        run_for sim (U.Units.ms 2.0);
        Alcotest.(check (float 1e-9)) "full floor restored" 1.0 p.Placement.floor_scale;
        Alcotest.(check bool) "guarantee back" true (tenant_rate fab ~tenant:1 >= 9.5e9));
    tc "exponential backoff spaces attempts of a stage" (fun () ->
        let sim, fab, mgr = make_mgr () in
        let config = { Remediation.default_config with Remediation.max_attempts = 3 } in
        let rem = Remediation.create ~config mgr in
        Remediation.start rem;
        let p = submit_one mgr (Intent.pipe ~tenant:1 ~src:"gpu0" ~dst:"socket0" ~rate:10e9) in
        let f = start_on fab p ~demand:10e9 () in
        ignore (Manager.attach mgr f);
        run_for sim (U.Units.ms 1.0);
        E.Fabric.inject_fault fab (hop_link p 1) sick;
        run_for sim (U.Units.ms 20.0);
        let rearb =
          List.filter
            (fun (a : Remediation.action) -> a.Remediation.action_stage = Remediation.Rearbitrate)
            (Remediation.actions rem)
        in
        Alcotest.(check int) "bounded attempts" 3 (List.length rearb);
        let rec gaps = function
          | a :: (b : Remediation.action) :: rest ->
            (b.Remediation.at -. a.Remediation.at) :: gaps (b :: rest)
          | _ -> []
        in
        (match gaps rearb with
        | [ g1; g2 ] ->
          Alcotest.(check bool) "first gap >= base backoff" true
            (g1 >= Remediation.default_config.Remediation.base_backoff);
          Alcotest.(check bool) "backoff grows" true (g2 > g1 *. 1.5)
        | _ -> Alcotest.fail "expected two gaps"));
    tc "flap damping holds the case down instead of thrashing" (fun () ->
        let sim, fab, mgr = make_mgr () in
        let rem = Remediation.create mgr in
        Remediation.start rem;
        let p = submit_one mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:10e9) in
        let f = start_on fab p ~demand:10e9 () in
        ignore (Manager.attach mgr f);
        run_for sim (U.Units.ms 1.0);
        let bad = hop_link p 1 in
        let toggles = 12 in
        E.Fabric.flap_link fab bad sick ~period:(U.Units.ms 1.0) ~toggles;
        run_for sim (U.Units.ms 30.0);
        let held =
          List.exists
            (fun (a : Remediation.action) ->
              String.length a.Remediation.detail >= 4
              && String.sub a.Remediation.detail 0 4 = "flap")
            (Remediation.actions rem)
        in
        Alcotest.(check bool) "hold-down engaged" true held;
        Alcotest.(check bool) "actions bounded below toggle count" true
          (Remediation.actions_count rem < toggles);
        match Remediation.case_for rem bad with
        | None -> Alcotest.fail "no case"
        | Some c ->
          Alcotest.(check bool) "eventually resolved" true
            (c.Remediation.status = Remediation.Resolved));
    tc "detector source opens a case when fault events are ignored" (fun () ->
        let sim, fab, mgr = make_mgr () in
        let config =
          { Remediation.default_config with Remediation.use_fault_events = false }
        in
        let rem = Remediation.create ~config mgr in
        Remediation.start rem;
        let p = submit_one mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:10e9) in
        let f = start_on fab p ~demand:10e9 () in
        ignore (Manager.attach mgr f);
        let bad = hop_link p 1 in
        let verdicts = ref [] in
        Remediation.add_source rem ~name:"synthetic" (fun () -> !verdicts);
        run_for sim (U.Units.ms 1.0);
        E.Fabric.inject_fault fab bad sick;
        run_for sim (U.Units.ms 2.0);
        Alcotest.(check bool) "ignored without a detector verdict" true
          (Remediation.case_for rem bad = None);
        verdicts := [ (bad, 1.0) ];
        run_for sim (U.Units.ms 10.0);
        (match Remediation.case_for rem bad with
        | None -> Alcotest.fail "detector verdict did not open a case"
        | Some c ->
          Alcotest.(check bool) "resolved" true (c.Remediation.status = Remediation.Resolved));
        Alcotest.(check bool) "guarantee restored" true (tenant_rate fab ~tenant:1 >= 9.5e9));
    tc "sub-threshold detector scores are ignored" (fun () ->
        let sim, _, mgr = make_mgr () in
        let rem = Remediation.create mgr in
        Remediation.start rem;
        Remediation.add_source rem ~name:"noisy" (fun () -> [ (0, 0.2) ]);
        run_for sim (U.Units.ms 2.0);
        Alcotest.(check int) "no case" 0 (List.length (Remediation.cases rem)));
    tc "hose placements cannot be re-placed" (fun () ->
        let _, _, mgr = make_mgr () in
        match
          Manager.submit mgr (Intent.hose ~tenant:1 ~endpoint:"nic0" ~to_host:1e9 ~from_host:1e9)
        with
        | Error e -> Alcotest.fail (Mgr_error.to_string e)
        | Ok (p :: _) ->
          Alcotest.(check bool) "error" true
            (Result.is_error (Manager.replace_placement mgr ~avoid:[] p))
        | Ok [] -> Alcotest.fail "no placements");
    tc "affected_placements finds exactly the paths crossing the link" (fun () ->
        let _, _, mgr = make_mgr () in
        let p1 = submit_one mgr (Intent.pipe ~tenant:1 ~src:"gpu0" ~dst:"socket0" ~rate:1e9) in
        let _p2 = submit_one mgr (Intent.pipe ~tenant:2 ~src:"nic2" ~dst:"socket1" ~rate:1e9) in
        let bad = hop_link p1 0 in
        match Manager.affected_placements mgr bad with
        | [ p ] -> Alcotest.(check int) "the gpu pipe" p1.Placement.id p.Placement.id
        | l -> Alcotest.failf "expected one affected placement, got %d" (List.length l));
    tc "tail detector is silent while the sketch plane is dormant" (fun () ->
        let sim, fab, mgr = make_mgr () in
        let p =
          submit_one mgr
            {
              (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:1e9) with
              Intent.p99_bound = Some (U.Units.us 10.0);
            }
        in
        let f = start_on fab p ~demand:1e9 () in
        ignore (Manager.attach mgr f);
        run_for sim (U.Units.ms 1.0);
        Alcotest.(check (list (pair int (float 0.0)))) "no verdicts" []
          (Remediation.tail_latency_source mgr ()));
    tc "tail detector blames the worst hop once the bound is breached" (fun () ->
        let sim, fab, mgr = make_mgr () in
        E.Fabric.enable_latency_sketches fab;
        let bound = U.Units.us 10.0 in
        let p =
          submit_one mgr
            {
              (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:1e9) with
              Intent.p99_bound = Some bound;
            }
        in
        let f = start_on fab p ~demand:1e9 () in
        ignore (Manager.attach mgr f);
        run_for sim (U.Units.ms 1.0);
        Alcotest.(check (list (pair int (float 0.0)))) "quiet within bound" []
          (Remediation.tail_latency_source mgr ());
        let h = List.nth p.Placement.path.T.Path.hops 1 in
        let bad = h.T.Path.link.T.Link.id in
        (match E.Fabric.link_latency_sketch fab bad h.T.Path.dir with
        | Some sk -> for _ = 1 to 1000 do U.Sketch.record sk (5.0 *. bound) done
        | None -> Alcotest.fail "sketch plane missing");
        match Remediation.tail_latency_source mgr () with
        | [ (link, score) ] ->
          Alcotest.(check int) "blames the polluted hop" bad link;
          Alcotest.(check bool) "score positive and clamped" true (score > 0.0 && score <= 1.0)
        | l -> Alcotest.failf "expected one verdict, got %d" (List.length l));
    tc "tail detector drives re-placement off a latency-only fault" (fun () ->
        (* extra_latency with capacity_factor 1.0: invisible to every
           bandwidth detector, only the sketches can see it *)
        let sim, fab, mgr = make_mgr () in
        E.Fabric.enable_latency_sketches fab;
        let config = { Remediation.default_config with Remediation.use_fault_events = false } in
        let rem = Remediation.create ~config mgr in
        Remediation.start rem;
        Remediation.add_source rem ~name:"tail" (Remediation.tail_latency_source mgr);
        let bound = U.Units.us 50.0 in
        let p =
          submit_one mgr
            {
              (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:5e9) with
              Intent.p99_bound = Some bound;
            }
        in
        let f = start_on fab p ~demand:5e9 () in
        ignore (Manager.attach mgr f);
        run_for sim (U.Units.ms 1.0);
        let bad = hop_link p 1 in
        E.Fabric.inject_fault fab bad
          (E.Fault.degrade ~capacity_factor:1.0 ~extra_latency:(20.0 *. bound) ());
        run_for sim (U.Units.ms 10.0);
        (match Remediation.case_for rem bad with
        | None -> Alcotest.fail "tail verdict did not open a case"
        | Some c ->
          Alcotest.(check bool) "resolved" true (c.Remediation.status = Remediation.Resolved));
        Alcotest.(check bool) "placement moved off the slow link" true
          (not
             (List.exists
                (fun (h : T.Path.hop) -> h.T.Path.link.T.Link.id = bad)
                p.Placement.path.T.Path.hops)));
    tc "host wires heartbeat localization as a detector" (fun () ->
        let host = Ihnet.Host.create Ihnet.Host.Two_socket in
        let config =
          { Remediation.default_config with Remediation.use_fault_events = false }
        in
        let rem = Ihnet.Host.enable_remediation host ~config () in
        let mgr = Option.get (Ihnet.Host.manager host) in
        let p =
          match Ihnet.Host.submit_intent host (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:10e9) with
          | Ok [ p ] -> p
          | _ -> Alcotest.fail "submit failed"
        in
        let f = start_on (Ihnet.Host.fabric host) p ~demand:10e9 () in
        ignore (Manager.attach mgr f);
        Ihnet.Host.run_for host (U.Units.ms 10.0);
        let bad = hop_link p 1 in
        E.Fabric.inject_fault (Ihnet.Host.fabric host) bad sick;
        Ihnet.Host.run_for host (U.Units.ms 20.0);
        Alcotest.(check bool) "heartbeats opened the case" true
          (Remediation.case_for rem bad <> None);
        Alcotest.(check bool) "guarantee restored" true
          (tenant_rate (Ihnet.Host.fabric host) ~tenant:1 >= 9.5e9));
  ]

let suites =
  [
    ("arbiter-lifecycle", arbiter_regressions);
    ("arbiter-floor-props", arbiter_props);
    ("remediation", remediation_tests);
  ]
