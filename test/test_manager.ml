(* Unit and integration tests for ihnet_manager. *)

open Ihnet_manager
module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload

let tc name f = Alcotest.test_case name `Quick f
let check_close ?(eps = 1e-6) msg expected actual = Alcotest.(check (float eps)) msg expected actual

let make_host () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  (topo, sim, fab)

(* {1 Intent} *)

let intent_tests =
  [
    tc "pipe constructor validates" (fun () ->
        let i = Intent.pipe ~tenant:1 ~src:"nic0" ~dst:"gpu0" ~rate:1e9 in
        Alcotest.(check bool) "ok" true (Result.is_ok (Intent.validate i));
        check_close "total" 1e9 (Intent.total_guaranteed i));
    tc "rejects empty and non-positive targets" (fun () ->
        let empty = { (Intent.pipe ~tenant:1 ~src:"a" ~dst:"b" ~rate:1.0) with Intent.targets = [] } in
        Alcotest.(check bool) "empty" true (Result.is_error (Intent.validate empty));
        let bad = Intent.pipe ~tenant:1 ~src:"a" ~dst:"b" ~rate:0.0 in
        Alcotest.(check bool) "zero rate" true (Result.is_error (Intent.validate bad)));
    tc "rejects non-finite rates and bounds, naming which" (fun () ->
        let pipe rate = Intent.pipe ~tenant:1 ~src:"a" ~dst:"b" ~rate in
        let hose to_host from_host = Intent.hose ~tenant:1 ~endpoint:"a" ~to_host ~from_host in
        let refused label want i =
          match Intent.validate i with
          | Ok () -> Alcotest.failf "%s accepted" label
          | Error why -> Alcotest.(check string) label want why
        in
        let rate = "intent target with non-finite rate" in
        List.iter
          (fun v ->
            refused "pipe rate" rate (pipe v);
            refused "hose to_host" rate (hose v 1.0);
            refused "hose from_host" rate (hose 1.0 v);
            refused "latency bound" "non-finite latency bound"
              { (pipe 1.0) with Intent.latency_bound = Some v };
            refused "p99 bound" "non-finite p99 bound" { (pipe 1.0) with Intent.p99_bound = Some v })
          [ Float.nan; Float.infinity; Float.neg_infinity ];
        refused "negative pipe rate" "intent target with non-positive rate" (pipe (-1.0));
        refused "zero latency bound" "non-positive latency bound"
          { (pipe 1.0) with Intent.latency_bound = Some 0.0 };
        Alcotest.(check bool) "one-way hose ok" true (Result.is_ok (Intent.validate (hose 0.0 1.0))));
    tc "hose totals both directions" (fun () ->
        let i = Intent.hose ~tenant:1 ~endpoint:"nic0" ~to_host:2e9 ~from_host:1e9 in
        check_close "total" 3e9 (Intent.total_guaranteed i));
    tc "p99 bound must be positive" (fun () ->
        let with_bound b =
          { (Intent.pipe ~tenant:1 ~src:"a" ~dst:"b" ~rate:1.0) with Intent.p99_bound = b }
        in
        Alcotest.(check bool) "zero" true (Result.is_error (Intent.validate (with_bound (Some 0.0))));
        Alcotest.(check bool) "negative" true
          (Result.is_error (Intent.validate (with_bound (Some (-5.0)))));
        Alcotest.(check bool) "positive ok" true
          (Result.is_ok (Intent.validate (with_bound (Some 1000.0)))));
  ]

(* {1 Interpreter} *)

let interpreter_tests =
  [
    tc "pipe compiles to candidates" (fun () ->
        let topo, _, _ = make_host () in
        match Interpreter.compile topo (Intent.pipe ~tenant:1 ~src:"gpu0" ~dst:"ssd0" ~rate:1e9) with
        | Error e -> Alcotest.fail (Mgr_error.to_string e)
        | Ok [ req ] ->
          Alcotest.(check bool) "has candidates" true (req.Interpreter.candidates <> []);
          Alcotest.(check bool) "pipe kind" true (req.Interpreter.kind = Placement.Pipe_fwd)
        | Ok _ -> Alcotest.fail "expected one requirement");
    tc "hose compiles to up and down requirements" (fun () ->
        let topo, _, _ = make_host () in
        match
          Interpreter.compile topo (Intent.hose ~tenant:1 ~endpoint:"nic0" ~to_host:1e9 ~from_host:2e9)
        with
        | Error e -> Alcotest.fail (Mgr_error.to_string e)
        | Ok reqs ->
          Alcotest.(check int) "two" 2 (List.length reqs);
          Alcotest.(check bool) "kinds" true
            (List.exists (fun r -> r.Interpreter.kind = Placement.Hose_to_host) reqs
            && List.exists (fun r -> r.Interpreter.kind = Placement.Hose_from_host) reqs));
    tc "unknown device fails" (fun () ->
        let topo, _, _ = make_host () in
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Interpreter.compile topo (Intent.pipe ~tenant:1 ~src:"nope" ~dst:"gpu0" ~rate:1.0))));
    tc "latency bound filters long candidates" (fun () ->
        let topo, _, _ = make_host () in
        let tight =
          {
            (Intent.pipe ~tenant:1 ~src:"gpu0" ~dst:"gpu1" ~rate:1e9) with
            Intent.latency_bound = Some 10.0 (* impossible: cross-socket needs >500ns *);
          }
        in
        Alcotest.(check bool) "rejected" true (Result.is_error (Interpreter.compile topo tight)));
    tc "p99 bound threads through compile to the placement" (fun () ->
        let topo, _, fab = make_host () in
        let bound = U.Units.us 50.0 in
        let i =
          {
            (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:1e9) with
            Intent.p99_bound = Some bound;
          }
        in
        (match Interpreter.compile topo i with
        | Ok [ req ] ->
          Alcotest.(check bool) "requirement carries bound" true
            (req.Interpreter.p99_bound = Some bound)
        | Ok _ -> Alcotest.fail "expected one requirement"
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let mgr = Manager.create fab () in
        match Manager.submit mgr i with
        | Ok [ p ] ->
          Alcotest.(check bool) "placement carries bound" true
            (p.Placement.p99_bound = Some bound)
        | Ok _ -> Alcotest.fail "expected one placement"
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
    tc "p99 bound filters idle-infeasible candidates" (fun () ->
        let topo, _, _ = make_host () in
        let tight =
          {
            (Intent.pipe ~tenant:1 ~src:"gpu0" ~dst:"gpu1" ~rate:1e9) with
            Intent.p99_bound = Some 10.0 (* a p99 bound is also a latency bound *);
          }
        in
        Alcotest.(check bool) "rejected" true (Result.is_error (Interpreter.compile topo tight)));
  ]

(* {1 Scheduler} *)

let scheduler_tests =
  [
    tc "places within headroom, rejects beyond" (fun () ->
        let topo, _, _ = make_host () in
        let sched = Scheduler.create topo ~headroom:0.9 () in
        let compile rate =
          match
            Interpreter.compile topo (Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate)
          with
          | Ok [ r ] -> r
          | Ok _ | Error _ -> Alcotest.fail "compile failed"
        in
        (* nic1 is behind a ~31.5 GB/s x16 slot; 0.9 headroom = ~28.3 *)
        (match Scheduler.place sched (compile 20e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        (match Scheduler.place sched (compile 20e9) with
        | Ok _ -> Alcotest.fail "should not fit"
        | Error _ -> ()));
    tc "create refuses a headroom outside (0, 1]" (fun () ->
        let topo, _, _ = make_host () in
        List.iter
          (fun headroom ->
            Alcotest.check_raises (Printf.sprintf "headroom %g" headroom)
              (Invalid_argument "Scheduler.create: headroom must be in (0, 1]") (fun () ->
                ignore (Scheduler.create topo ~headroom ())))
          [ 1.5; 0.0; Float.nan ]);
    tc "release returns capacity" (fun () ->
        let topo, _, _ = make_host () in
        let sched = Scheduler.create topo () in
        let req =
          match
            Interpreter.compile topo (Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:20e9)
          with
          | Ok [ r ] -> r
          | Ok _ | Error _ -> Alcotest.fail "compile failed"
        in
        let p =
          match Scheduler.place sched req with Ok p -> p | Error e -> Alcotest.fail (Mgr_error.to_string e)
        in
        Alcotest.(check bool) "reserved" true (Scheduler.total_reserved sched > 0.0);
        Scheduler.release sched p;
        check_close "back to zero" 0.0 (Scheduler.total_reserved sched));
    tc "place_all rolls back on failure" (fun () ->
        let topo, _, _ = make_host () in
        let sched = Scheduler.create topo () in
        let compile rate =
          match
            Interpreter.compile topo (Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate)
          with
          | Ok [ r ] -> r
          | Ok _ | Error _ -> Alcotest.fail "compile failed"
        in
        (match Scheduler.place_all sched [ compile 20e9; compile 20e9 ] with
        | Ok _ -> Alcotest.fail "expected failure"
        | Error _ -> ());
        check_close "rolled back" 0.0 (Scheduler.total_reserved sched));
    tc "scheduler spreads pipes across alternative pathways" (fun () ->
        (* gpu0 -> dimm paths can go via different memory controllers;
           two large pipes should not stack on one channel *)
        let topo, _, _ = make_host () in
        let sched = Scheduler.create topo () in
        let compile dst =
          match Interpreter.compile topo (Intent.pipe ~tenant:1 ~src:"gpu0" ~dst ~rate:10e9) with
          | Ok [ r ] -> r
          | Ok _ | Error _ -> Alcotest.fail "compile failed"
        in
        let p1 =
          match Scheduler.place sched (compile "dimm0.0.0") with
          | Ok p -> p
          | Error e -> Alcotest.fail (Mgr_error.to_string e)
        in
        let p2 =
          match Scheduler.place sched (compile "dimm0.0.0") with
          | Ok p -> p
          | Error e -> Alcotest.fail (Mgr_error.to_string e)
        in
        (* second placement must avoid the first's saturated DDR channel
           only if capacity forces it; at 10e9 each on a 25.6e9 channel
           both fit, so check the ledger never exceeds the headroom *)
        List.iter
          (fun (_, fwd, rev) ->
            Alcotest.(check bool) "ledger sane" true (fwd <= 1.0 && rev <= 1.0))
          (Scheduler.utilization_summary sched);
        ignore (p1, p2));
    tc "hose reserves less than equivalent pipes (E9 shape)" (fun () ->
        let topo, _, _ = make_host () in
        (* hose: 10 GB/s at nic0 vs pipes: 5 GB/s to two DIMMs *)
        let hose_sched = Scheduler.create topo () in
        let hose_req =
          match
            Interpreter.compile topo
              (Intent.hose ~tenant:1 ~endpoint:"nic0" ~to_host:10e9 ~from_host:0.0)
          with
          | Ok rs -> rs
          | Error e -> Alcotest.fail (Mgr_error.to_string e)
        in
        (match Scheduler.place_all hose_sched hose_req with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let pipe_sched = Scheduler.create topo () in
        let pipe_reqs =
          List.concat_map
            (fun dst ->
              match
                Interpreter.compile topo (Intent.pipe ~tenant:1 ~src:"nic0" ~dst ~rate:5e9)
              with
              | Ok rs -> rs
              | Error e -> Alcotest.fail (Mgr_error.to_string e))
            [ "dimm0.0.0"; "dimm0.1.0" ]
        in
        (match Scheduler.place_all pipe_sched pipe_reqs with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        Alcotest.(check bool) "hose cheaper" true
          (Scheduler.total_reserved hose_sched < Scheduler.total_reserved pipe_sched));
  ]

(* {1 Arbiter} *)

let arbiter_tests =
  [
    tc "attached flows get guaranteed floors" (fun () ->
        let topo, sim, fab = make_host () in
        let mgr = Manager.create fab () in
        (match
           Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:5e9)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let p = T.Routing.route topo "ext" "socket0" in
        let victim = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        Alcotest.(check bool) "attached" true (Manager.attach mgr victim);
        (* aggressor floods the shared pcie subtree *)
        let agg = W.Rdma.start_loopback fab ~tenant:2 ~nic:"nic0" () in
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        Alcotest.(check bool) "floor honored under attack" true (victim.E.Flow.rate >= 5e9 *. 0.99);
        W.Rdma.stop_loopback agg;
        ignore topo);
    tc "floor is split among the placement's flows" (fun () ->
        let topo, _, fab = make_host () in
        let mgr = Manager.create fab () in
        (match Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:6e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let p = T.Routing.route topo "ext" "socket0" in
        let f1 = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        let f2 = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        ignore (Manager.attach mgr f1);
        ignore (Manager.attach mgr f2);
        let arb = Manager.arbiter mgr in
        check_close ~eps:1.0 "half" 3e9 (Arbiter.guaranteed_of arb f1);
        check_close ~eps:1.0 "half" 3e9 (Arbiter.guaranteed_of arb f2));
    tc "non-work-conserving caps at the guarantee" (fun () ->
        let topo, sim, fab = make_host () in
        let mgr = Manager.create fab () in
        let intent =
          {
            (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:2e9) with
            Intent.work_conserving = false;
          }
        in
        (match Manager.submit mgr intent with Ok _ -> () | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let p = T.Routing.route topo "ext" "socket0" in
        let f = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        ignore (Manager.attach mgr f);
        E.Sim.run ~until:(U.Units.us 10.0) sim;
        check_close ~eps:1e3 "capped" 2e9 f.E.Flow.rate);
    tc "work-conserving exceeds the floor when idle" (fun () ->
        let topo, sim, fab = make_host () in
        let mgr = Manager.create fab () in
        (match Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:2e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let p = T.Routing.route topo "ext" "socket0" in
        let f = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        ignore (Manager.attach mgr f);
        E.Sim.run ~until:(U.Units.us 10.0) sim;
        Alcotest.(check bool) "exceeds floor" true (f.E.Flow.rate > 10e9));
    tc "shim auto-attaches payload flows" (fun () ->
        let topo, sim, fab = make_host () in
        let mgr = Manager.create fab () in
        Manager.start_shim mgr ~period:(U.Units.us 50.0);
        (match Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:5e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let p = T.Routing.route topo "ext" "socket0" in
        let f = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        E.Sim.run ~until:(U.Units.us 200.0) sim;
        let arb = Manager.arbiter mgr in
        Alcotest.(check bool) "auto attached" true (Arbiter.guaranteed_of arb f > 0.0);
        Manager.stop_shim mgr);
    tc "detach returns a flow to best effort" (fun () ->
        let topo, _, fab = make_host () in
        let mgr = Manager.create fab () in
        (match Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:5e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let p = T.Routing.route topo "ext" "socket0" in
        let f = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        ignore (Manager.attach mgr f);
        Manager.detach mgr f;
        check_close "no floor" 0.0 (Arbiter.guaranteed_of (Manager.arbiter mgr) f);
        check_close "flow floor reset" 0.0 f.E.Flow.floor);
    tc "revoke releases placements and reservations" (fun () ->
        let _, _, fab = make_host () in
        let mgr = Manager.create fab () in
        (match Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:5e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        Alcotest.(check bool) "placed" true (Manager.placements mgr <> []);
        Manager.revoke mgr ~tenant:1;
        Alcotest.(check (list int)) "no tenants" [] (Manager.tenants mgr);
        check_close "ledger empty" 0.0 (Scheduler.total_reserved (Manager.scheduler mgr)));
    tc "guarantees hold under flow churn" (fun () ->
        (* flows of the guaranteed tenant come and go every few hundred
           microseconds while an aggressor hammers the subtree; whenever
           the shim has caught up, the tenant's aggregate must be at its
           floor *)
        let topo, sim, fab = make_host () in
        let mgr = Manager.create fab () in
        Manager.start_shim mgr ~period:(U.Units.us 50.0);
        (match Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:6e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let p =
          T.Path.concat
            (T.Routing.route topo "ext" "nic0")
            (T.Routing.route topo "nic0" "socket0")
        in
        let agg = W.Rdma.start_loopback fab ~tenant:2 ~nic:"nic0" () in
        let live = ref [] in
        let rng = U.Rng.create 99 in
        let violations = ref 0 and samples = ref 0 in
        for _ = 1 to 40 do
          (* churn: flip a coin to add or remove a tenant-1 flow *)
          (if U.Rng.bool rng || !live = [] then
             live := E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () :: !live
           else
             match !live with
             | f :: rest ->
               E.Fabric.stop_flow fab f;
               live := rest
             | [] -> ());
          E.Sim.run ~until:(E.Sim.now sim +. U.Units.us 200.0) sim;
          if !live <> [] then begin
            incr samples;
            let total =
              List.fold_left (fun acc (f : E.Flow.t) -> acc +. f.E.Flow.rate) 0.0 !live
            in
            if total < 6e9 *. 0.99 then incr violations
          end
        done;
        W.Rdma.stop_loopback agg;
        (* the shim needs one period to classify a newborn flow, so a few
           samples right after churn can be under; most must hold *)
        Alcotest.(check bool)
          (Printf.sprintf "floor held in %d/%d samples" (!samples - !violations) !samples)
          true
          (float_of_int !violations <= 0.2 *. float_of_int !samples));
    tc "reaction delay defers enforcement" (fun () ->
        let topo, sim, fab = make_host () in
        let mgr = Manager.create fab ~reaction_delay:(U.Units.us 100.0) () in
        (match Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:5e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let p = T.Routing.route topo "ext" "socket0" in
        let f = E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded () in
        ignore (Manager.attach mgr f);
        check_close "not yet" 0.0 f.E.Flow.floor;
        E.Sim.run ~until:(U.Units.us 200.0) sim;
        Alcotest.(check bool) "applied later" true (f.E.Flow.floor > 0.0));
    tc "create refuses a negative reaction delay" (fun () ->
        let _, _, fab = make_host () in
        List.iter
          (fun reaction_delay ->
            Alcotest.check_raises (Printf.sprintf "reaction_delay %g" reaction_delay)
              (Invalid_argument "Arbiter.create: reaction_delay must be >= 0") (fun () ->
                ignore (Arbiter.create fab ~reaction_delay ())))
          [ -1.0; Float.nan ]);
    tc "start_shim refuses a non-positive period" (fun () ->
        let _, _, fab = make_host () in
        let mgr = Manager.create fab () in
        List.iter
          (fun period ->
            Alcotest.check_raises (Printf.sprintf "period %g" period)
              (Invalid_argument "Arbiter.start_shim: period must be > 0") (fun () ->
                Manager.start_shim mgr ~period))
          [ 0.0; -1.0; Float.nan ]);
  ]

(* {1 Hose matching} *)

let hose_tests =
  [
    tc "to_host hose catches inbound flows of its endpoint only" (fun () ->
        let topo, _, fab = make_host () in
        let mgr = Manager.create fab () in
        (match
           Manager.submit mgr (Intent.hose ~tenant:1 ~endpoint:"nic0" ~to_host:5e9 ~from_host:0.0)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let via_nic0 =
          E.Fabric.start_flow fab ~tenant:1 ~path:(T.Routing.route topo "nic0" "socket0")
            ~size:E.Flow.Unbounded ()
        in
        let via_nic1 =
          E.Fabric.start_flow fab ~tenant:1 ~path:(T.Routing.route topo "nic1" "socket0")
            ~size:E.Flow.Unbounded ()
        in
        Alcotest.(check bool) "nic0 flow matches" true (Manager.attach mgr via_nic0);
        Alcotest.(check bool) "nic1 flow does not" false (Manager.attach mgr via_nic1));
    tc "from_host hose anchors on the endpoint-adjacent hop" (fun () ->
        let topo, _, fab = make_host () in
        let mgr = Manager.create fab () in
        (match
           Manager.submit mgr (Intent.hose ~tenant:1 ~endpoint:"nic0" ~to_host:0.0 ~from_host:5e9)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let out_nic0 =
          E.Fabric.start_flow fab ~tenant:1 ~path:(T.Routing.route topo "socket0" "nic0")
            ~size:E.Flow.Unbounded ()
        in
        (* same socket, different endpoint: must NOT be charged to nic0's hose *)
        let out_gpu0 =
          E.Fabric.start_flow fab ~tenant:1 ~path:(T.Routing.route topo "socket0" "gpu0")
            ~size:E.Flow.Unbounded ()
        in
        Alcotest.(check bool) "socket->nic0 matches" true (Manager.attach mgr out_nic0);
        Alcotest.(check bool) "socket->gpu0 does not" false (Manager.attach mgr out_gpu0));
    tc "other tenants never match a hose" (fun () ->
        let topo, _, fab = make_host () in
        let mgr = Manager.create fab () in
        (match
           Manager.submit mgr (Intent.hose ~tenant:1 ~endpoint:"nic0" ~to_host:5e9 ~from_host:0.0)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let foreign =
          E.Fabric.start_flow fab ~tenant:2 ~path:(T.Routing.route topo "nic0" "socket0")
            ~size:E.Flow.Unbounded ()
        in
        Alcotest.(check bool) "no match" false (Manager.attach mgr foreign));
  ]

(* {1 Vnet} *)

let vnet_tests =
  [
    tc "vnet shows allocated capacity as link capacity" (fun () ->
        let _, _, fab = make_host () in
        let mgr = Manager.create fab () in
        (match Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:4e9) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Mgr_error.to_string e));
        let v = Manager.vnet mgr ~tenant:1 in
        Alcotest.(check bool) "has devices" true (T.Topology.device_count v > 0);
        List.iter
          (fun (l : T.Link.t) -> check_close "capacity = allocation" 4e9 l.T.Link.capacity)
          (T.Topology.links v);
        (* the vnet is a normal topology: routing works in the illusion *)
        let nic = T.Topology.device_named v "nic1" in
        let sock = T.Topology.device_named v "socket0" in
        Alcotest.(check bool) "routable" true
          (T.Routing.reachable v nic.T.Device.id sock.T.Device.id));
    tc "other tenants are invisible in the vnet" (fun () ->
        let _, _, fab = make_host () in
        let mgr = Manager.create fab () in
        ignore (Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:4e9));
        ignore (Manager.submit mgr (Intent.pipe ~tenant:2 ~src:"gpu1" ~dst:"socket1" ~rate:4e9));
        let v1 = Manager.vnet mgr ~tenant:1 in
        Alcotest.(check bool) "no gpu1" true (T.Topology.device_by_name v1 "gpu1" = None));
    tc "migration compatibility to an identical host" (fun () ->
        let topo, _, fab = make_host () in
        let mgr = Manager.create fab () in
        ignore (Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:4e9));
        let dst = T.Builder.two_socket_server () in
        Alcotest.(check bool) "compatible" true
          (Vnet.migration_compatible ~src:topo ~dst_host:dst ~placements:(Manager.placements mgr)
             ~tenant:1);
        (* a minimal host lacks nic1: not compatible *)
        let tiny = T.Builder.minimal () in
        Alcotest.(check bool) "incompatible" false
          (Vnet.migration_compatible ~src:topo ~dst_host:tiny
             ~placements:(Manager.placements mgr) ~tenant:1));
  ]

(* {1 Capacity planner} *)

let planner_tests =
  [
    tc "a small deployment fits; an absurd one does not" (fun () ->
        let topo, _, _ = make_host () in
        let small = [ Intent.pipe ~tenant:1 ~src:"nic0" ~dst:"socket0" ~rate:1e9 ] in
        let absurd = [ Intent.pipe ~tenant:1 ~src:"nic0" ~dst:"socket0" ~rate:1e12 ] in
        Alcotest.(check bool) "fits" true (Planner.fits topo small);
        Alcotest.(check bool) "absurd" false (Planner.fits topo absurd));
    tc "max_scale finds the pcie ceiling" (fun () ->
        let topo, _, _ = make_host () in
        (* 1 GB/s through nic1's x16 slot: ceiling = 0.9 * 31.5 = 28.35x *)
        let deployment = [ Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:1e9 ] in
        let s = Planner.max_scale topo deployment in
        Alcotest.(check bool) "around 28x" true (s > 26.0 && s < 30.0));
    tc "max_scale below 1 flags over-commitment" (fun () ->
        let topo, _, _ = make_host () in
        let deployment = [ Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:40e9 ] in
        let s = Planner.max_scale topo deployment in
        Alcotest.(check bool) "below 1" true (s > 0.0 && s < 1.0));
    tc "unroutable intents scale to zero" (fun () ->
        let topo, _, _ = make_host () in
        let deployment = [ Intent.pipe ~tenant:1 ~src:"nope" ~dst:"socket0" ~rate:1e9 ] in
        Alcotest.(check (float 0.0)) "zero" 0.0 (Planner.max_scale topo deployment));
    tc "bottlenecks name the hottest link" (fun () ->
        let topo, _, _ = make_host () in
        let deployment = [ Intent.pipe ~tenant:1 ~src:"nic1" ~dst:"socket0" ~rate:20e9 ] in
        match Planner.bottlenecks topo deployment with
        | (link, ratio) :: _ ->
          (* the x16 slot is by far the tightest *)
          Alcotest.(check bool) "pcie first" true
            (match link.T.Link.kind with T.Link.Pcie _ -> true | _ -> false);
          Alcotest.(check bool) "ratio" true (ratio > 0.6)
        | [] -> Alcotest.fail "expected bottlenecks");
    tc "scale_intent multiplies every target" (fun () ->
        let i = Intent.hose ~tenant:1 ~endpoint:"nic0" ~to_host:2e9 ~from_host:1e9 in
        let scaled = Planner.scale_intent i 3.0 in
        check_close "total" 9e9 (Intent.total_guaranteed scaled));
  ]

(* {1 SLO tail-latency verdicts} *)

let slo_tests =
  let submit_bounded mgr bound =
    match
      Manager.submit mgr
        {
          (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:1e9) with
          Intent.p99_bound = Some bound;
        }
    with
    | Ok [ p ] -> p
    | Ok _ -> Alcotest.fail "expected one placement"
    | Error e -> Alcotest.fail (Mgr_error.to_string e)
  in
  let one_entry mgr =
    match (Slo.check mgr).Slo.entries with
    | [ e ] -> e
    | es -> Alcotest.failf "expected one entry, got %d" (List.length es)
  in
  [
    tc "sketch-observed p99 closes the tail-latency loop" (fun () ->
        let _, sim, fab = make_host () in
        E.Fabric.enable_latency_sketches fab;
        let mgr = Manager.create fab () in
        let bound = U.Units.us 50.0 in
        let p = submit_bounded mgr bound in
        (* demand pinned at the guarantee: an elastic flow would saturate
           the path and honestly blow the 50us bound on queueing alone *)
        let f =
          E.Fabric.start_flow fab ~tenant:1 ~demand:1e9 ~path:p.Placement.path
            ~size:E.Flow.Unbounded ()
        in
        ignore (Manager.attach mgr f);
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let e = one_entry mgr in
        Alcotest.(check bool) "sketches observed the path" true (e.Slo.observed_p99 <> None);
        Alcotest.(check bool) "met within bound" true (e.Slo.state = Slo.Met);
        (* pollute the first hop's sketch far past the bound: the verdict
           must flip on the observed percentile, no fault needed *)
        let h = List.hd p.Placement.path.T.Path.hops in
        (match E.Fabric.link_latency_sketch fab h.T.Path.link.T.Link.id h.T.Path.dir with
        | Some sk -> for _ = 1 to 1000 do U.Sketch.record sk (U.Units.us 500.0) done
        | None -> Alcotest.fail "sketch plane missing");
        let e = one_entry mgr in
        (match e.Slo.state with
        | Slo.Violated why ->
          Alcotest.(check bool) "verdict names the observed p99" true
            (String.length why >= 12 && String.sub why 0 12 = "observed p99")
        | _ -> Alcotest.fail "expected a tail violation");
        match e.Slo.observed_p99 with
        | Some obs -> Alcotest.(check bool) "beyond bound" true (obs > bound)
        | None -> Alcotest.fail "no observed p99 in the entry");
    tc "dormant plane falls back to the instantaneous estimate" (fun () ->
        let _, sim, fab = make_host () in
        let mgr = Manager.create fab () in
        let p = submit_bounded mgr (U.Units.ms 1.0) in
        let f =
          E.Fabric.start_flow fab ~tenant:1 ~demand:1e9 ~path:p.Placement.path
            ~size:E.Flow.Unbounded ()
        in
        ignore (Manager.attach mgr f);
        E.Sim.run ~until:(U.Units.ms 1.0) sim;
        let e = one_entry mgr in
        Alcotest.(check bool) "no sketch observation" true (e.Slo.observed_p99 = None);
        Alcotest.(check bool) "still judged, and met" true (e.Slo.state = Slo.Met));
  ]

(* {1 Policies} *)

let policy_tests =
  [
    tc "static partition caps memory-crossing flows only" (fun () ->
        let topo, sim, fab = make_host () in
        let handle =
          Policy.install fab (Policy.Static_partition { tenants = [ 1; 2 ] })
            ~period:(U.Units.us 50.0)
        in
        let mem_flow =
          E.Fabric.start_flow fab ~tenant:1 ~path:(T.Routing.route topo "ext" "dimm0.0.0")
            ~size:E.Flow.Unbounded ()
        in
        let pcie_flow =
          E.Fabric.start_flow fab ~tenant:2 ~path:(T.Routing.route topo "gpu0" "nic0")
            ~size:E.Flow.Unbounded ()
        in
        E.Sim.run ~until:(U.Units.us 500.0) sim;
        Alcotest.(check bool) "memory flow capped" true (mem_flow.E.Flow.cap < infinity);
        Alcotest.(check bool) "pcie flow untouched" true (pcie_flow.E.Flow.cap = infinity);
        Policy.uninstall handle);
    tc "install refuses a period <= 0, NaN included, before any effect" (fun () ->
        let _, sim, fab = make_host () in
        List.iter
          (fun period ->
            let msg = Printf.sprintf "Policy.install: period must be > 0 (got %g)" period in
            Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
                ignore (Policy.install fab (Policy.Static_partition { tenants = [ 1 ] }) ~period)))
          [ 0.0; -50.0; nan ];
        Alcotest.(check bool) "nothing scheduled" true (E.Sim.pending sim = 0));
    tc "labels" (fun () ->
        Alcotest.(check string) "nm" "no-mgmt" (Policy.label Policy.No_management);
        Alcotest.(check string) "sp" "static-partition"
          (Policy.label (Policy.Static_partition { tenants = [] })));
  ]

let suites =
  [
    ("manager.intent", intent_tests);
    ("manager.interpreter", interpreter_tests);
    ("manager.scheduler", scheduler_tests);
    ("manager.arbiter", arbiter_tests);
    ("manager.hose", hose_tests);
    ("manager.vnet", vnet_tests);
    ("manager.planner", planner_tests);
    ("manager.slo", slo_tests);
    ("manager.policy", policy_tests);
  ]
