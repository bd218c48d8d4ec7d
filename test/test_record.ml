(* Flight-recorder tests: trace codec round-trips, record → replay
   conformance on a mixed scenario, divergence detection under a
   deliberate perturbation, the invariant checker, and the qcheck
   property that any random command sequence replays bit-for-bit with
   identical final allocations and telemetry. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module Mon = Ihnet_monitor
module Rec = Ihnet_record

let tc name f = Alcotest.test_case name `Quick f

let fresh ?(seed = 11) () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create ~seed sim topo in
  (topo, sim, fab)

let dev topo n =
  match T.Topology.device_by_name topo n with
  | Some d -> d.T.Device.id
  | None -> Alcotest.fail ("no device " ^ n)

let route topo a b =
  match T.Routing.shortest_path topo (dev topo a) (dev topo b) with
  | Some p -> p
  | None -> Alcotest.fail (Printf.sprintf "%s unreachable from %s" b a)

let run_for sim ns = E.Sim.run ~until:(E.Sim.now sim +. ns) sim

let parse_buf buf =
  match Rec.Trace.parse (Buffer.contents buf) with
  | Ok t -> t
  | Error e -> Alcotest.fail ("trace parse: " ^ e)

(* {1 Codec} *)

let sample_spec =
  {
    Rec.Trace.flow_id = 3;
    tenant = 2;
    cls = "payload";
    weight = 1.5;
    floor = 0.0;
    cap = infinity;
    demand = 12.345e9;
    payload_bytes = 4096;
    working_set_pages = 7;
    llc_target = true;
    size = Some 1.25e6;
    src = 0;
    dst = 9;
    hops = [ (4, 0); (7, 1) ];
  }

let sample_config =
  {
    Rec.Trace.iommu = Some (512, 0.97, 180.0);
    ddio = Some (20, 2, 1.5e6);
    pcie_mps = 256;
    relaxed_ordering = true;
    acs = false;
    interrupt_moderation = 50_000.0;
  }

let sample_digest =
  {
    Rec.Trace.d_at = 123456.789;
    d_epoch = 42;
    d_flows = 5;
    d_alloc = 0x1234_5678_9abc_def0L;
    d_floor = Rec.Trace.fnv_basis;
    d_bytes = -1L;
  }

let codec_tests =
  let roundtrip l =
    let s = Rec.Trace.line_to_string l in
    match Rec.Trace.line_of_string s with
    | Ok l' ->
      if l' <> l then Alcotest.fail ("codec round-trip changed the line: " ^ s)
    | Error e -> Alcotest.fail (Printf.sprintf "codec rejected its own output %s: %s" s e)
  in
  [
    tc "FNV-1a folds: reference vectors, and the streaming state agrees" (fun () ->
        let open Rec.Trace in
        List.iter
          (fun (s, h) -> Alcotest.(check int64) (Printf.sprintf "%S" s) h (fnv_string fnv_basis s))
          [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ];
        let pure =
          let h = fnv_string fnv_basis "link" in
          let h = fnv_string h "[" in
          let h = fnv_int h (-42) in
          let h = fnv_float h 1.5 in
          let h = fnv_float h nan in
          fnv_float h (-0.0)
        in
        let st = fnv_start () in
        fnv_add_string st "link";
        fnv_add_char st '[';
        fnv_add_int st (-42);
        fnv_add_float st 1.5;
        fnv_add_floats st [| nan; -0.0 |];
        Alcotest.(check int64) "streamed" pure (fnv_value st);
        let w = 0x8000000000000001L in
        Alcotest.(check int64) "a word folds as its float's bits"
          (fnv_float fnv_basis (Int64.float_of_bits w))
          (fnv_int64 fnv_basis w));
    tc "every line kind round-trips exactly" (fun () ->
        List.iter roundtrip
          [
            Rec.Trace.Header
              {
                Rec.Trace.version = Rec.Trace.version;
                preset = "two-socket-server";
                seed = 99;
                label = "codec";
                digest_every = 8;
                host_config = sample_config;
              };
            Rec.Trace.Op { at = 0.0; op = Rec.Trace.Start_flow sample_spec };
            Rec.Trace.Op
              {
                at = 1.0e6;
                op =
                  Rec.Trace.Start_flow
                    { sample_spec with Rec.Trace.size = None; cap = infinity; demand = infinity };
              };
            Rec.Trace.Op { at = 17.25; op = Rec.Trace.Stop_flow 3 };
            Rec.Trace.Op
              {
                at = 1.0;
                op =
                  Rec.Trace.Set_limits { flow_id = 3; weight = 2.0; floor = 1e9; cap = infinity };
              };
            Rec.Trace.Op
              {
                at = 2.0;
                op =
                  Rec.Trace.Inject_fault
                    {
                      link = 5;
                      fault =
                        { Rec.Trace.capacity_factor = 0.05; extra_latency = 1e3; loss_prob = 0.0 };
                    };
              };
            Rec.Trace.Op { at = 3.0; op = Rec.Trace.Clear_fault 5 };
            Rec.Trace.Op { at = 4.0; op = Rec.Trace.Clear_all_faults };
            Rec.Trace.Op { at = 5.0; op = Rec.Trace.Set_config sample_config };
            Rec.Trace.Op
              {
                at = 5.5;
                op = Rec.Trace.Set_config { sample_config with Rec.Trace.iommu = None; ddio = None };
              };
            Rec.Trace.Op { at = 6.0; op = Rec.Trace.Sync };
            Rec.Trace.Op { at = 7.0; op = Rec.Trace.Batch_start };
            Rec.Trace.Op { at = 7.0; op = Rec.Trace.Batch_end };
            Rec.Trace.Completed { at = 8.125e6; flow_id = 3; transferred = 1.25e6 };
            Rec.Trace.Action
              { at = 9.0; link = 2; stage = "reroute"; detail = "case 4: migrated 1 placement" };
            Rec.Trace.Digest sample_digest;
            Rec.Trace.Final { sample_digest with Rec.Trace.d_epoch = 43 };
          ]);
    tc "awkward floats survive the trip" (fun () ->
        (* 17 significant digits: the bit pattern must be identical *)
        List.iter
          (fun v ->
            let l = Rec.Trace.Completed { at = v; flow_id = 0; transferred = v } in
            match Rec.Trace.line_of_string (Rec.Trace.line_to_string l) with
            | Ok (Rec.Trace.Completed c) ->
              if Int64.bits_of_float c.at <> Int64.bits_of_float v then
                Alcotest.fail (Printf.sprintf "float %h drifted to %h" v c.at)
            | Ok _ -> Alcotest.fail "line kind changed"
            | Error e -> Alcotest.fail e)
          [ 0.1; 1.0 /. 3.0; 4.0e18; 5.0e-324; 1.7976931348623157e308; infinity; neg_infinity ]);
    tc "nan is representable json" (fun () ->
        let j = Rec.Trace.jfloat nan in
        let v = Rec.Trace.as_float (Rec.Trace.json_of_string (Rec.Trace.json_to_string j)) in
        Alcotest.(check bool) "nan round-trips" true (Float.is_nan v));
    tc "malformed lines are errors, not exceptions" (fun () ->
        List.iter
          (fun s ->
            match Rec.Trace.line_of_string s with
            | Ok _ -> Alcotest.fail ("accepted malformed line: " ^ s)
            | Error _ -> ())
          [ ""; "{"; "[1,2]"; "{\"line\":\"nope\"}"; "{\"at\":1.0}" ]);
  ]

(* {1 A mixed scenario: every op kind, then replay} *)

(* Drives flows over several link classes with a batch, faults, a
   clear-all, a config flip and bounded transfers, so the trace carries
   every op kind plus completion annotations. *)
let record_mixed ?(digest_every = 2) () =
  let topo, sim, fab = fresh () in
  let buf = Buffer.create 8192 in
  let r =
    Rec.Recorder.attach ~digest_every ~label:"test-mixed" ~seed:11
      ~sink:(Rec.Recorder.buffer_sink buf) fab
  in
  let start ?size ?demand a b tenant =
    E.Fabric.start_flow fab ~tenant ?demand ~path:(route topo a b)
      ~size:(match size with Some b -> E.Flow.Bytes b | None -> E.Flow.Unbounded)
      ()
  in
  let f1 = start "ext" "socket0" 1 ~demand:(U.Units.gbytes_per_s 6.0) in
  run_for sim (U.Units.us 200.0);
  let f2 = start "gpu0" "ssd0" 2 ~size:3e6 in
  ignore (start "nic0" "socket0" 3 ~size:1.5e6 ~demand:(U.Units.gbytes_per_s 4.0));
  run_for sim (U.Units.us 300.0);
  E.Fabric.batch fab (fun () ->
      E.Fabric.set_flow_limits fab f1 ~weight:2.0 ();
      ignore (start "socket0" "socket1" 1 ~size:2e6));
  run_for sim (U.Units.us 300.0);
  let pcie =
    List.filter
      (fun (l : T.Link.t) -> match l.T.Link.kind with T.Link.Pcie _ -> true | _ -> false)
      (T.Topology.links topo)
  in
  let sick = (List.hd pcie).T.Link.id in
  E.Fabric.inject_fault fab sick (E.Fault.degrade ~capacity_factor:0.1 ());
  run_for sim (U.Units.us 400.0);
  E.Fabric.clear_all_faults fab;
  E.Fabric.set_config fab { T.Hostconfig.default with T.Hostconfig.ddio = T.Hostconfig.Ddio_off };
  run_for sim (U.Units.ms 1.0);
  E.Fabric.stop_flow fab f1;
  (if f2.E.Flow.state = E.Flow.Running then E.Fabric.stop_flow fab f2);
  run_for sim (U.Units.us 500.0);
  Rec.Recorder.stop r;
  parse_buf buf

let replay_exn ?setup ?perturb ?reference trace =
  match Rec.Replay.run ?setup ?perturb ?reference trace with
  | Ok r -> r
  | Error e -> Alcotest.fail ("replay refused the trace: " ^ e)

let replay_tests =
  [
    tc "mixed scenario replays with zero divergences" (fun () ->
        let trace = record_mixed () in
        let r = replay_exn trace in
        if not (Rec.Replay.ok r) then
          Alcotest.fail (Format.asprintf "%a" Rec.Replay.pp_report r);
        Alcotest.(check bool) "digests were actually checked" true (r.Rec.Replay.digests_checked > 0);
        Alcotest.(check bool)
          "completions were actually checked" true
          (r.Rec.Replay.completions_checked > 0));
    tc "perturbed replay diverges at the first post-perturbation digest" (fun () ->
        (* cadence 1 pins the first divergence to a single epoch *)
        let trace = record_mixed ~digest_every:1 () in
        let pt = U.Units.us 730.0 in
        let expected_epoch =
          let rec first = function
            | Rec.Trace.Digest d :: _ when d.Rec.Trace.d_at >= pt -> d.Rec.Trace.d_epoch
            | _ :: rest -> first rest
            | [] -> Alcotest.fail "no digest after the perturbation point"
          in
          first trace.Rec.Trace.lines
        in
        let perturb fab = function
          | f :: _ -> E.Fabric.set_flow_limits fab f ~weight:(f.E.Flow.weight *. 4.0) ()
          | [] -> Alcotest.fail "no running flows at the perturbation point"
        in
        let r = replay_exn ~perturb:(pt, perturb) trace in
        Alcotest.(check bool) "perturbation detected" false (Rec.Replay.ok r);
        (match r.Rec.Replay.first_divergence with
        | None -> Alcotest.fail "report not ok but no first divergence"
        | Some d ->
          Alcotest.(check int) "first divergence epoch" expected_epoch d.Rec.Replay.epoch;
          Alcotest.(check bool)
            "divergence not before the perturbation" true
            (d.Rec.Replay.at >= pt)));
    tc "drill-down names the first divergent scan register" (fun () ->
        let trace = record_mixed ~digest_every:1 () in
        let pt = U.Units.us 730.0 in
        let perturb fab = function
          | f :: _ -> E.Fabric.set_flow_limits fab f ~weight:(f.E.Flow.weight *. 4.0) ()
          | [] -> Alcotest.fail "no running flows at the perturbation point"
        in
        let reference =
          match Rec.Replay.scan_reference trace with
          | Ok r -> r
          | Error e -> Alcotest.fail ("scan_reference refused the trace: " ^ e)
        in
        Alcotest.(check bool) "reference chain non-empty" true (reference <> []);
        let r = replay_exn ~perturb:(pt, perturb) ~reference trace in
        Alcotest.(check bool) "perturbation detected" false (Rec.Replay.ok r);
        match r.Rec.Replay.first_divergence with
        | None -> Alcotest.fail "report not ok but no first divergence"
        | Some d -> (
          match d.Rec.Replay.register with
          | None -> Alcotest.fail "digest divergence carried no register drill-down"
          | Some reg ->
            (* the report names a register path with both values;
               quadrupling a weight must surface in the rate plane or
               its downstream byte counters, all slash paths *)
            Alcotest.(check bool)
              "names a register path"
              true
              (String.contains reg '/');
            let rendered = Format.asprintf "%a" Rec.Replay.pp_report r in
            let contains s sub =
              let n = String.length s and m = String.length sub in
              let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool)
              "report prints the drill-down" true
              (contains rendered "first divergent register")));
    tc "clean replay against its own scan reference stays clean" (fun () ->
        let trace = record_mixed ~digest_every:2 () in
        let reference =
          match Rec.Replay.scan_reference trace with
          | Ok r -> r
          | Error e -> Alcotest.fail ("scan_reference refused the trace: " ^ e)
        in
        let r = replay_exn ~reference trace in
        if not (Rec.Replay.ok r) then
          Alcotest.fail (Format.asprintf "%a" Rec.Replay.pp_report r));
    tc "unperturbed digests before the perturbation point all match" (fun () ->
        let trace = record_mixed ~digest_every:1 () in
        let pt = U.Units.us 730.0 in
        let before =
          List.length
            (List.filter
               (function Rec.Trace.Digest d -> d.Rec.Trace.d_at < pt | _ -> false)
               trace.Rec.Trace.lines)
        in
        let perturb fab = function
          | f :: _ -> E.Fabric.set_flow_limits fab f ~weight:(f.E.Flow.weight *. 4.0) ()
          | [] -> ()
        in
        let r = replay_exn ~perturb:(pt, perturb) trace in
        Alcotest.(check bool)
          "all pre-perturbation digests were consumed cleanly" true
          (r.Rec.Replay.digests_checked >= before));
    tc "attach refuses a fabric with live flows" (fun () ->
        let topo, _sim, fab = fresh () in
        ignore (E.Fabric.start_flow fab ~tenant:1 ~path:(route topo "ext" "socket0")
                  ~size:E.Flow.Unbounded ());
        match
          Rec.Recorder.attach ~sink:(fun _ -> ()) fab
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "attach accepted a mid-flight fabric");
    tc "invariant checker passes on a healthy loaded fabric" (fun () ->
        let topo, sim, fab = fresh () in
        ignore (E.Fabric.start_flow fab ~tenant:1 ~path:(route topo "ext" "socket0")
                  ~size:E.Flow.Unbounded ());
        ignore (E.Fabric.start_flow fab ~tenant:2 ~path:(route topo "gpu0" "ssd0")
                  ~size:(E.Flow.Bytes 8e6) ());
        run_for sim (U.Units.us 500.0);
        Alcotest.(check (list string)) "no failures" [] (Rec.Replay.check_invariants fab));
  ]

(* {1 Property: arbitrary command sequences replay exactly} *)

type cmd =
  | Start of int * float option * int * float
  | Stop of int
  | Limits of int * float
  | Fault of int * float
  | Clear of int
  | Clear_all
  | Flap of int

let pp_cmd = function
  | Start (r, sz, tn, dem) ->
    Printf.sprintf "Start(route=%d,size=%s,tenant=%d,demand=%.3g)" r
      (match sz with Some b -> Printf.sprintf "%.3g" b | None -> "unbounded")
      tn dem
  | Stop i -> Printf.sprintf "Stop %d" i
  | Limits (i, w) -> Printf.sprintf "Limits(%d,w=%.3g)" i w
  | Fault (l, f) -> Printf.sprintf "Fault(%d,%.2f)" l f
  | Clear l -> Printf.sprintf "Clear %d" l
  | Clear_all -> "ClearAll"
  | Flap l -> Printf.sprintf "Flap %d" l

let gen_cmds =
  QCheck.Gen.(
    let cmd =
      frequency
        [
          ( 5,
            map
              (fun ((r, sz), (tn, dem)) -> Start (r, sz, tn, dem))
              (pair
                 (pair (int_range 0 5) (opt (float_range 2e5 4e6)))
                 (pair (int_range 1 4) (float_range 1e9 1.2e10))) );
          (2, map (fun i -> Stop i) (int_range 0 40));
          (2, map2 (fun i w -> Limits (i, w)) (int_range 0 40) (float_range 0.5 4.0));
          (2, map2 (fun l f -> Fault (l, f)) (int_range 0 40) (float_range 0.05 0.9));
          (1, map (fun l -> Clear l) (int_range 0 40));
          (1, return Clear_all);
          (1, map (fun l -> Flap l) (int_range 0 40));
        ]
    in
    list_size (int_range 4 32) cmd)

let arb_cmds = QCheck.make ~print:QCheck.Print.(list (fun c -> pp_cmd c)) gen_cmds

(* The command spacing and the telemetry cadence collide at every third
   sample on purpose: equal-time command/observation pairs are exactly
   where replay ordering could slip. *)
let cmd_spacing = U.Units.us 100.0
let sample_period = U.Units.us 300.0

let watched_links = [ (0, T.Link.Fwd); (0, T.Link.Rev); (1, T.Link.Fwd) ]

let attach_sampler sim fab store ~until =
  E.Sim.every sim ~period:sample_period ~until (fun s ->
      List.iter
        (fun (l, dir) ->
          let series =
            Printf.sprintf "link.%d.%s.bytes" l
              (match dir with T.Link.Fwd -> "fwd" | T.Link.Rev -> "rev")
          in
          Mon.Telemetry.record store ~series ~at:(E.Sim.now s) (E.Fabric.link_bytes fab l dir))
        watched_links)

let alloc_snapshot fab =
  E.Fabric.refresh fab;
  List.sort compare
    (List.map (fun (f : E.Flow.t) -> (f.E.Flow.id, f.E.Flow.rate)) (E.Fabric.active_flows fab))

let run_property cmds =
  let topo, sim, fab = fresh ~seed:23 () in
  let routes =
    Array.of_list
      (List.map
         (fun (a, b) -> route topo a b)
         [
           ("ext", "socket0");
           ("nic0", "socket0");
           ("gpu0", "ssd0");
           ("socket0", "socket1");
           ("gpu0", "ext");
           ("nic1", "socket1");
         ])
  in
  let pcie =
    List.filter
      (fun (l : T.Link.t) -> match l.T.Link.kind with T.Link.Pcie _ -> true | _ -> false)
      (T.Topology.links topo)
    |> Array.of_list
  in
  let total = (float_of_int (List.length cmds) +. 4.0) *. cmd_spacing in
  let buf = Buffer.create 16384 in
  let rcd =
    Rec.Recorder.attach ~digest_every:2 ~label:"prop" ~seed:23
      ~sink:(Rec.Recorder.buffer_sink buf) fab
  in
  let telemetry = Mon.Telemetry.create ~capacity_per_series:64 () in
  attach_sampler sim fab telemetry ~until:total;
  let flows = ref [||] in
  let nth_flow i =
    if Array.length !flows = 0 then None
    else
      let f = !flows.(i mod Array.length !flows) in
      if f.E.Flow.state = E.Flow.Running then Some f else None
  in
  let link i = pcie.(i mod Array.length pcie).T.Link.id in
  List.iteri
    (fun i c ->
      E.Sim.schedule_at sim
        (float_of_int (i + 1) *. cmd_spacing)
        (fun _ ->
          match c with
          | Start (r, sz, tenant, demand) ->
            let f =
              E.Fabric.start_flow fab ~tenant ~demand
                ~path:routes.(r mod Array.length routes)
                ~size:(match sz with Some b -> E.Flow.Bytes b | None -> E.Flow.Unbounded)
                ()
            in
            flows := Array.append !flows [| f |]
          | Stop i -> Option.iter (fun f -> E.Fabric.stop_flow fab f) (nth_flow i)
          | Limits (i, w) ->
            Option.iter (fun f -> E.Fabric.set_flow_limits fab f ~weight:w ()) (nth_flow i)
          | Fault (l, factor) ->
            E.Fabric.inject_fault fab (link l) (E.Fault.degrade ~capacity_factor:factor ())
          | Clear l -> E.Fabric.clear_fault fab (link l)
          | Clear_all -> E.Fabric.clear_all_faults fab
          | Flap l ->
            E.Fabric.flap_link fab (link l)
              (E.Fault.degrade ~capacity_factor:0.2 ())
              ~period:(U.Units.us 150.0) ~toggles:2))
    cmds;
  E.Sim.run ~until:total sim;
  Rec.Recorder.stop rcd;
  let recorded_alloc = alloc_snapshot fab in
  let recorded_csv = Mon.Telemetry.to_csv telemetry in
  let trace = parse_buf buf in
  let replayed_fab = ref None in
  let replay_telemetry = Mon.Telemetry.create ~capacity_per_series:64 () in
  let setup sim fab =
    replayed_fab := Some fab;
    attach_sampler sim fab replay_telemetry ~until:total
  in
  let report = replay_exn ~setup trace in
  if not (Rec.Replay.ok report) then
    QCheck.Test.fail_reportf "replay diverged:@.%a" Rec.Replay.pp_report report;
  let replayed_alloc =
    match !replayed_fab with
    | Some fab -> alloc_snapshot fab
    | None -> QCheck.Test.fail_report "replay never ran setup"
  in
  if recorded_alloc <> replayed_alloc then
    QCheck.Test.fail_reportf "final allocations differ: recorded %d flow(s), replayed %d"
      (List.length recorded_alloc) (List.length replayed_alloc);
  let replayed_csv = Mon.Telemetry.to_csv replay_telemetry in
  if recorded_csv <> replayed_csv then
    QCheck.Test.fail_report "telemetry csv differs between record and replay";
  true

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random command sequences record and replay bit-for-bit" ~count:25
         arb_cmds run_property);
  ]

let suites =
  [
    ("record.codec", codec_tests);
    ("record.replay", replay_tests);
    ("record.property", property_tests);
  ]
