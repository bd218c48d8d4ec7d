(* Zero-impact properties of the planes that watch or supervise a host:
   the remediation loop, the flight recorder, the evidence gate, the
   latency-sketch plane and the scan port. On a fault-free managed host
   each must leave the run exactly as it is without them. Every case
   runs the same 50 ms scenario with and without the plane and compares
   the fabric's reallocation count and the arbiter's decision count
   (the scan port also compares the recorder's trace byte for byte).
   Each case also checks that the plane really ran, so that a plane
   optimised into a no-op cannot pass vacuously. The fleet controller's
   counterpart is [fleet.idle] in test_fleet.ml. *)

module U = Ihnet_util
module E = Ihnet_engine
module T = Ihnet_topology
module M = Ihnet_manager
module Mon = Ihnet_monitor
module Rec = Ihnet_record

let tc name f = Alcotest.test_case name `Quick f

(* A two-socket host with three guaranteed pipes, a flow attached to
   each placement and the arbiter's shim polling every 50 µs. [wire]
   instruments the fabric before anything is placed. *)
let managed_host ?(wire = fun _ -> ()) () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  wire fab;
  let mgr = M.Manager.create fab () in
  List.iter
    (fun intent ->
      match M.Manager.submit mgr intent with
      | Ok ps ->
        List.iter
          (fun (p : M.Placement.t) ->
            let f =
              E.Fabric.start_flow fab ~tenant:p.M.Placement.tenant ~demand:p.M.Placement.rate
                ~path:p.M.Placement.path ~size:E.Flow.Unbounded ()
            in
            ignore (M.Manager.attach mgr f))
          ps
      | Error e -> Alcotest.failf "admission refused: %s" (M.Mgr_error.to_string e))
    [
      M.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:8e9;
      M.Intent.pipe ~tenant:2 ~src:"gpu0" ~dst:"socket0" ~rate:4e9;
      M.Intent.pipe ~tenant:3 ~src:"ext" ~dst:"socket1" ~rate:6e9;
    ];
  M.Manager.start_shim mgr ~period:5e4;
  (sim, fab, mgr)

(* run 50 simulated ms; the (reallocations, decisions) they leave *)
let run_50ms (sim, fab, mgr) =
  E.Sim.run ~until:50e6 sim;
  (E.Fabric.reallocations fab, M.Manager.decisions mgr)

let counts = Alcotest.(pair int int)

let supervised ?gate () =
  let ((_, fab, mgr) as host) = managed_host () in
  let rem = M.Remediation.create mgr in
  Option.iter (fun gate -> M.Remediation.set_gate rem (gate fab)) gate;
  M.Remediation.start rem;
  let c = run_50ms host in
  Alcotest.(check int) "no action without a fault" 0 (M.Remediation.actions_count rem);
  c

let tests =
  [
    tc "remediation: an idle supervisor acts never and changes no count" (fun () ->
        Alcotest.check counts "counts with the loop" (run_50ms (managed_host ())) (supervised ()));
    tc "recorder: a dormant or a recording recorder changes no count" (fun () ->
        let bare = run_50ms (managed_host ()) in
        let dormant =
          run_50ms
            (managed_host
               ~wire:(fun fab ->
                 Rec.Recorder.stop
                   (Rec.Recorder.attach
                      ~sink:(Rec.Recorder.buffer_sink (Buffer.create 256))
                      fab))
               ())
        in
        let buf = Buffer.create 65536 in
        let recording =
          run_50ms
            (managed_host
               ~wire:(fun fab ->
                 ignore
                   (Rec.Recorder.attach ~label:"idle" ~sink:(Rec.Recorder.buffer_sink buf) fab))
               ())
        in
        Alcotest.check counts "dormant" bare dormant;
        Alcotest.check counts "recording" bare recording;
        Alcotest.(check bool) "the recorder captured lines" true (Buffer.length buf > 0));
    tc "evidence: a gate over honest sensors changes no count" (fun () ->
        Alcotest.check counts "gated vs ungated" (supervised ())
          (supervised ~gate:(fun fab -> Mon.Evidence.gate (Mon.Evidence.create fab)) ()));
    tc "sketch: an enabled sketch plane observes without steering" (fun () ->
        let bare = run_50ms (managed_host ()) in
        let ((_, fab, _) as host) = managed_host ~wire:E.Fabric.enable_latency_sketches () in
        Alcotest.check counts "sketched" bare (run_50ms host);
        let samples =
          List.fold_left
            (fun acc (l : T.Link.t) ->
              List.fold_left
                (fun acc dir ->
                  match E.Fabric.link_latency_sketch fab l.T.Link.id dir with
                  | Some sk -> acc + U.Sketch.count sk
                  | None -> acc)
                acc [ T.Link.Fwd; T.Link.Rev ])
            0
            (T.Topology.links (E.Fabric.topology fab))
        in
        Alcotest.(check bool) "the plane recorded samples" true (samples > 0));
    tc "scanport: a capture at every epoch leaves the trace byte-identical" (fun () ->
        let run ~scan =
          let buf = Buffer.create 65536 in
          let snaps = ref [] in
          let ((sim, fab, _) as host) =
            managed_host
              ~wire:(fun fab ->
                ignore
                  (Rec.Recorder.attach ~label:"idle" ~sink:(Rec.Recorder.buffer_sink buf) fab);
                if scan then
                  E.Fabric.subscribe fab (function
                    | E.Fabric.Reallocated _ -> snaps := Rec.Scanport.capture fab :: !snaps
                    | _ -> ()))
              ()
          in
          (* An epoch syncs the fabric just before it is announced, so
             at an epoch a capture that syncs looks like a pure read.
             Between two epochs, off the shim's 50 µs grid, it does
             not. *)
          E.Sim.run ~until:25.025e6 sim;
          if scan then snaps := Rec.Scanport.capture fab :: !snaps;
          let c = run_50ms host in
          (c, Buffer.contents buf, !snaps)
        in
        let bare, bare_trace, _ = run ~scan:false in
        let scanned, scanned_trace, snaps = run ~scan:true in
        Alcotest.check counts "scanned" bare scanned;
        Alcotest.(check bool) "traces byte-identical" true (String.equal bare_trace scanned_trace);
        match snaps with
        | [] -> Alcotest.fail "no snapshot captured"
        | last :: _ ->
          Alcotest.(check bool) "the scan chain was read out" true (last.Rec.Scanport.s_regs <> []));
  ]

let suites = [ ("idle.planes", tests) ]
