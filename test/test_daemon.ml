(* The daemon command plane: wire-frame round-trips (commands,
   responses, errors, streamed events, inf/nan floats), incremental
   frame reassembly, the documented exit-code taxonomy, the shared
   host-spec construction path, transport-level protocol errors,
   out-of-range command fields refused before any effect, and an
   integration run of one in-process server with four concurrent
   clients whose recorded session replays bit-for-bit. *)

module U = Ihnet_util
module R = Ihnet_manager
module Rec = Ihnet_record
module Api = Ihnet_api
module C = Api.Command
module Resp = Api.Response
module Err = Api.Api_error

let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 100) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* the codec's float contract is IEEE-754 bit-exactness, so the
   pathological values ride along with ordinary ones *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (6, float);
        (1, return nan);
        (1, return infinity);
        (1, return neg_infinity);
        (1, return 0.0);
        (1, return (-0.0));
        (1, return 1.5e300);
      ])

(* device-ish names plus strings that exercise JSON escaping *)
let gen_name =
  QCheck.Gen.oneofl
    [ "nic0"; "socket0"; "rp0.0"; "ext"; "a b"; "q\"uote"; "back\\slash"; "tab\there"; "" ]

let gen_int64 =
  QCheck.Gen.(
    oneof
      [ map Int64.of_int int; return Int64.min_int; return Int64.max_int; return 0L; return (-1L) ])

let gen_target =
  QCheck.Gen.(
    oneof
      [
        map3 (fun src dst rate -> R.Intent.Pipe { src; dst; rate }) gen_name gen_name gen_float;
        map3
          (fun endpoint to_host from_host -> R.Intent.Hose { endpoint; to_host; from_host })
          gen_name gen_float gen_float;
      ])

let gen_intent =
  QCheck.Gen.(
    small_nat >>= fun tenant ->
    list_size (int_range 0 3) gen_target >>= fun targets ->
    opt gen_float >>= fun latency_bound ->
    opt gen_float >>= fun p99_bound ->
    bool >>= fun work_conserving ->
    return { R.Intent.tenant; targets; latency_bound; p99_bound; work_conserving })

let gen_fidelity = QCheck.Gen.oneofl [ C.Fid_hardware; C.Fid_software; C.Fid_oracle ]
let gen_stream = QCheck.Gen.oneofl [ C.S_telemetry; C.S_decisions; C.S_evidence ]
let gen_fleet_fault = QCheck.Gen.oneofl [ C.F_crash; C.F_restart; C.F_partition; C.F_heal ]

(* every Command constructor appears at least once *)
let gen_command =
  QCheck.Gen.(
    oneof
      [
        map (fun version -> C.Hello { version }) small_nat;
        map (fun dot -> C.Topo { dot }) bool;
        ( pair gen_name gen_name >>= fun (src, dst) ->
          pair small_nat bool >>= fun (count, load) -> return (C.Ping { src; dst; count; load }) );
        map3 (fun src dst load -> C.Path_trace { src; dst; load }) gen_name gen_name bool;
        map3 (fun src dst load -> C.Perf { src; dst; load }) gen_name gen_name bool;
        map3 (fun a b load -> C.Dump { a; b; load }) gen_name gen_name bool;
        return C.Check;
        map (fun degrade -> C.Heartbeat { degrade }) (opt (pair gen_name gen_name));
        ( pair gen_name gen_name >>= fun (src, dst) ->
          pair gen_float gen_float >>= fun (gbps, factor) ->
          opt (pair gen_name gen_name) >>= fun fault ->
          pair bool (opt small_nat) >>= fun (silent, flap) ->
          gen_float >>= fun ms -> return (C.Heal { src; dst; gbps; fault; factor; silent; flap; ms })
        );
        return C.Scenario_list;
        map3 (fun name ms protect -> C.Scenario { name; ms; protect }) gen_name gen_float
          (opt gen_float);
        ( pair gen_float gen_float >>= fun (ms, period_us) ->
          pair (opt gen_name) bool >>= fun (series, load) ->
          return (C.Monitor { ms; period_us; series; load }) );
        map2 (fun fidelity load -> C.Report { fidelity; load }) gen_fidelity bool;
        map3
          (fun pipes hoses headroom -> C.Plan { pipes; hoses; headroom })
          (list_size (int_range 0 3) (map3 (fun a b r -> (a, b, r)) gen_name gen_name gen_float))
          (list_size (int_range 0 3) (map3 (fun a i o -> (a, i, o)) gen_name gen_float gen_float))
          gen_float;
        map3 (fun link ms load -> C.Latency { link; ms; load }) bool gen_float bool;
        ( pair gen_float bool >>= fun (ms, load) ->
          pair (opt small_nat) bool >>= fun (step, snapshot) ->
          return (C.Scan { ms; load; step; snapshot }) );
        map (fun ms -> C.Run_for { ms }) gen_float;
        ( pair small_nat (pair gen_name gen_name) >>= fun (tenant, (src, dst)) ->
          opt gen_float >>= fun gbps -> return (C.Flow_start { tenant; src; dst; gbps }) );
        map (fun flow -> C.Flow_stop { flow }) small_nat;
        map (fun i -> C.Submit i) gen_intent;
        ( pair gen_name gen_name >>= fun (a, b) ->
          map3
            (fun factor extra_us loss -> C.Fault_inject { a; b; factor; extra_us; loss })
            gen_float gen_float gen_float );
        map2 (fun a b -> C.Fault_clear { a; b }) gen_name gen_name;
        return C.Faults_clear_all;
        map (fun s -> C.Subscribe s) gen_stream;
        return C.Stats;
        return C.Shutdown;
        map2 (fun name preset -> C.Fleet_spawn { name; preset }) gen_name gen_name;
        map (fun i -> C.Fleet_submit i) gen_intent;
        map (fun rounds -> C.Fleet_run { rounds }) small_nat;
        map (fun decisions -> C.Fleet_status { decisions }) bool;
        map2 (fun host what -> C.Fleet_fault { host; what }) gen_name gen_fleet_fault;
      ])

let gen_mgr_error =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> R.Mgr_error.Invalid_intent s) gen_name;
        map (fun s -> R.Mgr_error.Unknown_device s) gen_name;
        map2 (fun device socket -> R.Mgr_error.No_home_socket { device; socket }) gen_name gen_name;
        map2 (fun src dst -> R.Mgr_error.No_path { src; dst }) gen_name gen_name;
        map (fun s -> R.Mgr_error.No_uplink s) gen_name;
        map (fun s -> R.Mgr_error.No_downlink s) gen_name;
        map3
          (fun tenant rate best_ratio -> R.Mgr_error.Capacity_exhausted { tenant; rate; best_ratio })
          small_nat gen_float gen_float;
        return R.Mgr_error.Not_a_pipe;
        return R.Mgr_error.No_alternate_path;
        map (fun s -> R.Mgr_error.Host_unreachable s) gen_name;
        map2 (fun host command -> R.Mgr_error.Retries_exhausted { host; command }) gen_name gen_name;
        map (fun tenant -> R.Mgr_error.No_feasible_host { tenant }) small_nat;
      ])

let gen_error =
  QCheck.Gen.(
    oneof
      [
        map (fun e -> Err.Mgr e) gen_mgr_error;
        map (fun s -> Err.Invalid s) gen_name;
        map (fun s -> Err.Failed s) gen_name;
        map (fun s -> Err.Protocol s) gen_name;
        map (fun s -> Err.Unsupported s) gen_name;
      ])

let gen_event =
  QCheck.Gen.(
    oneof
      [
        ( pair gen_float small_nat >>= fun (ev_at, ev_epoch) ->
          pair small_nat gen_float >>= fun (ev_flows, ev_rate) ->
          return (Resp.Ev_telemetry { ev_at; ev_epoch; ev_flows; ev_rate }) );
        ( pair gen_float small_nat >>= fun (ev_at, ev_link) ->
          pair gen_name gen_name >>= fun (ev_stage, ev_detail) ->
          return (Resp.Ev_action { ev_at; ev_link; ev_stage; ev_detail }) );
        ( pair gen_float small_nat >>= fun (ev_at, ev_link) ->
          pair gen_name gen_float >>= fun (ev_modality, ev_score) ->
          return (Resp.Ev_evidence { ev_at; ev_link; ev_modality; ev_score }) );
      ])

let gen_link_row =
  QCheck.Gen.(
    pair small_nat gen_name >>= fun (l_id, l_kind) ->
    pair gen_name gen_name >>= fun (l_a, l_b) ->
    pair gen_float gen_float >>= fun (l_capacity, l_latency) ->
    return { Resp.l_id; l_kind; l_a; l_b; l_capacity; l_latency })

let gen_scan_step =
  QCheck.Gen.(
    pair small_nat small_nat >>= fun (st_n, st_epoch) ->
    gen_int64 >>= fun st_digest -> return { Resp.st_n; st_epoch; st_digest })

(* a representative slice of the Response surface — the fully nested
   reports plus everything that crosses the wire during an ihnetd
   session (acks, errors, events, scans, stats, fleet status) *)
let gen_response =
  QCheck.Gen.(
    oneof
      [
        return Resp.Ack;
        map (fun e -> Resp.Err e) gen_error;
        map2
          (fun mode preset -> Resp.Hello_ok { version = C.version; mode; preset })
          gen_name gen_name;
        map (fun ev -> Resp.Event ev) gen_event;
        ( pair gen_name gen_name >>= fun (summary, config) ->
          list_size (int_range 0 3) gen_link_row >>= fun links ->
          return (Resp.Topo_report { summary; config; links }) );
        map (fun s -> Resp.Topo_dot s) gen_name;
        ( pair gen_name gen_name >>= fun (src, dst) ->
          pair small_nat small_nat >>= fun (sent, lost) ->
          opt (pair (pair gen_float gen_float) (pair gen_float gen_float)) >>= fun rtt ->
          let rtt = Option.map (fun ((a, b), (c, d)) -> (a, b, c, d)) rtt in
          return (Resp.Ping_report { src; dst; sent; lost; rtt }) );
        map (fun findings -> Resp.Check_report findings) (list_size (int_range 0 3) gen_name);
        map (fun s -> Resp.Csv s) gen_name;
        map (fun s -> Resp.Health s) gen_name;
        ( pair small_nat gen_float >>= fun (intents, headroom) ->
          pair bool gen_float >>= fun (fits, scale) ->
          list_size (int_range 0 2)
            ( pair gen_name (pair gen_name gen_name) >>= fun (bn_kind, (bn_a, bn_b)) ->
              gen_float >>= fun bn_ratio -> return { Resp.bn_kind; bn_a; bn_b; bn_ratio } )
          >>= fun bottlenecks -> return (Resp.Plan_report { intents; headroom; fits; scale; bottlenecks })
        );
        ( pair small_nat small_nat >>= fun (epoch, regs) ->
          gen_int64 >>= fun digest ->
          list_size (int_range 0 3) gen_scan_step >>= fun steps ->
          opt small_nat >>= fun drained ->
          return (Resp.Scan_report { epoch; regs; digest; steps; drained; snapshot = None }) );
        map (fun flow -> Resp.Flow_ok { flow }) small_nat;
        map2
          (fun tenant placements -> Resp.Submit_ok { tenant; placements })
          small_nat
          (list_size (int_range 0 3) gen_name);
        ( pair gen_float small_nat >>= fun (now, epoch) ->
          pair small_nat gen_float >>= fun (flows, rate) ->
          pair small_nat small_nat >>= fun (reallocs, clients) ->
          small_nat >>= fun commands ->
          return (Resp.Stats_report { now; epoch; flows; rate; reallocs; clients; commands }) );
        ( pair small_nat small_nat >>= fun (hosts, rounds) ->
          pair gen_int64 gen_int64 >>= fun (digest, decisions) ->
          pair gen_name (list_size (int_range 0 3) gen_name) >>= fun (text, decision_log) ->
          return (Resp.Fleet_status_report { hosts; rounds; digest; decisions; text; decision_log })
        );
        return Resp.Bye;
      ])

(* structural equality is wrong for nan payloads; the codec's own
   contract — identical serialized bytes — is the right check *)
let json_eq j j' = String.equal (Rec.Trace.json_to_string j) (Rec.Trace.json_to_string j')

let cmd_arb = QCheck.make ~print:(fun c -> Rec.Trace.json_to_string (C.to_json c)) gen_command

let resp_arb =
  QCheck.make ~print:(fun r -> Rec.Trace.json_to_string (Resp.to_json r)) gen_response

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let codec_suite =
  ( "daemon codec",
    [
      prop "command round-trips bit-for-bit" ~count:300 cmd_arb (fun c ->
          match C.of_json (C.to_json c) with
          | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
          | Ok c' -> json_eq (C.to_json c) (C.to_json c'));
      prop "response round-trips bit-for-bit" ~count:300 resp_arb (fun r ->
          match Resp.of_json (Resp.to_json r) with
          | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
          | Ok r' -> json_eq (Resp.to_json r) (Resp.to_json r'));
      prop "error taxonomy round-trips" ~count:200
        (QCheck.make ~print:(fun e -> Err.message e) gen_error)
        (fun e ->
          match Err.of_json (Err.to_json e) with
          | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
          | Ok e' -> json_eq (Err.to_json e) (Err.to_json e'));
      tc "scan snapshot payload survives the response codec" (fun () ->
          let host = Api.Host_spec.create_host Api.Host_spec.default in
          let snap = Rec.Scanport.capture (Ihnet.Host.fabric host) in
          let r =
            Resp.Scan_report
              {
                epoch = 0;
                regs = List.length snap.Rec.Scanport.s_regs;
                digest = snap.Rec.Scanport.s_digest;
                steps = [];
                drained = None;
                snapshot = Some (Rec.Scanport.to_json snap);
              }
          in
          match Resp.of_json (Resp.to_json r) with
          | Error e -> Alcotest.fail e
          | Ok (Resp.Scan_report { snapshot = Some j; _ }) ->
            let snap' = Rec.Scanport.of_json j in
            Alcotest.(check bool)
              "snapshot identical" true
              (Rec.Scanport.diff ~scope:`All snap snap' = None)
          | Ok _ -> Alcotest.fail "wrong constructor");
    ] )

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let framing_suite =
  ( "daemon framing",
    [
      prop "frames reassemble from single-byte feeds" ~count:50
        (QCheck.make
           ~print:(fun cs ->
             String.concat "; " (List.map (fun c -> Rec.Trace.json_to_string (C.to_json c)) cs))
           QCheck.Gen.(list_size (int_range 1 5) gen_command))
        (fun cmds ->
          let stream = Buffer.create 256 in
          List.iter (fun c -> Buffer.add_bytes stream (Api.Wire.encode (C.to_json c))) cmds;
          let bytes = Buffer.to_bytes stream in
          let rd = Api.Wire.reader () in
          let got = ref [] in
          Bytes.iter
            (fun ch ->
              Api.Wire.feed rd (Bytes.make 1 ch) 1;
              let rec drain () =
                match Api.Wire.pop rd with
                | Some j ->
                  got := j :: !got;
                  drain ()
                | None -> ()
              in
              drain ())
            bytes;
          Api.Wire.pending rd = 0
          && List.length !got = List.length cmds
          && List.for_all2 (fun c j -> json_eq (C.to_json c) j) cmds (List.rev !got));
      tc "feed honors the length argument" (fun () ->
          let frame = Api.Wire.encode (C.to_json C.Stats) in
          let padded = Bytes.cat frame (Bytes.make 8 'x') in
          let rd = Api.Wire.reader () in
          Api.Wire.feed rd padded (Bytes.length frame);
          (match Api.Wire.pop rd with
          | Some j -> Alcotest.(check bool) "frame intact" true (json_eq (C.to_json C.Stats) j)
          | None -> Alcotest.fail "no frame");
          Alcotest.(check int) "garbage not buffered" 0 (Api.Wire.pending rd));
      tc "partial frame stays buffered" (fun () ->
          let frame = Api.Wire.encode (C.to_json C.Check) in
          let rd = Api.Wire.reader () in
          Api.Wire.feed rd frame (Bytes.length frame - 1);
          Alcotest.(check bool) "not poppable yet" true (Api.Wire.pop rd = None);
          Alcotest.(check int) "bytes buffered" (Bytes.length frame - 1) (Api.Wire.pending rd));
      tc "oversized frame is a protocol error" (fun () ->
          let header = Bytes.create 4 in
          Bytes.set_int32_be header 0 (Int32.of_int (Api.Wire.max_frame + 1));
          let rd = Api.Wire.reader () in
          Api.Wire.feed rd header 4;
          match Api.Wire.pop rd with
          | _ -> Alcotest.fail "oversized length accepted"
          | exception Err.Error (Err.Protocol _) -> ());
      tc "write_frame / read_frame round-trip over a pipe" (fun () ->
          let rd_fd, wr_fd = Unix.pipe () in
          let j = C.to_json (C.Flow_start { tenant = 3; src = "ext"; dst = "socket0"; gbps = None }) in
          Api.Wire.write_frame wr_fd j;
          (match Api.Wire.read_frame rd_fd with
          | Some j' -> Alcotest.(check bool) "payload intact" true (json_eq j j')
          | None -> Alcotest.fail "unexpected EOF");
          Unix.close wr_fd;
          Alcotest.(check bool) "clean EOF is None" true (Api.Wire.read_frame rd_fd = None);
          Unix.close rd_fd);
    ] )

(* ------------------------------------------------------------------ *)
(* Exit codes and the handler-level taxonomy                           *)
(* ------------------------------------------------------------------ *)

let exit_code_suite =
  let check_code name err want = tc name (fun () -> Alcotest.(check int) name want (Err.exit_code err)) in
  ( "daemon exit codes",
    [
      check_code "Invalid is 1" (Err.Invalid "x") 1;
      check_code "Failed is 1" (Err.Failed "x") 1;
      check_code "Protocol is 3" (Err.Protocol "x") 3;
      check_code "Unsupported is 4" (Err.Unsupported "x") 4;
      check_code "Invalid_intent is 10" (Err.Mgr (R.Mgr_error.Invalid_intent "x")) 10;
      check_code "Unknown_device is 11" (Err.Mgr (R.Mgr_error.Unknown_device "x")) 11;
      check_code "No_home_socket is 12"
        (Err.Mgr (R.Mgr_error.No_home_socket { device = "d"; socket = "s" }))
        12;
      check_code "No_path is 13" (Err.Mgr (R.Mgr_error.No_path { src = "a"; dst = "b" })) 13;
      check_code "No_uplink is 14" (Err.Mgr (R.Mgr_error.No_uplink "x")) 14;
      check_code "No_downlink is 15" (Err.Mgr (R.Mgr_error.No_downlink "x")) 15;
      check_code "Capacity_exhausted is 16"
        (Err.Mgr (R.Mgr_error.Capacity_exhausted { tenant = 1; rate = 1.0; best_ratio = 2.0 }))
        16;
      check_code "Not_a_pipe is 17" (Err.Mgr R.Mgr_error.Not_a_pipe) 17;
      check_code "No_alternate_path is 18" (Err.Mgr R.Mgr_error.No_alternate_path) 18;
      check_code "Host_unreachable is 19" (Err.Mgr (R.Mgr_error.Host_unreachable "h")) 19;
      check_code "Retries_exhausted is 20"
        (Err.Mgr (R.Mgr_error.Retries_exhausted { host = "h"; command = "c" }))
        20;
      check_code "No_feasible_host is 21" (Err.Mgr (R.Mgr_error.No_feasible_host { tenant = 1 })) 21;
    ] )

let show r = Rec.Trace.json_to_string (Resp.to_json r)

let handlers_suite =
  ( "daemon handlers",
    [
      tc "hello / subscribe / shutdown replies" (fun () ->
          let h = Api.Handlers.local Api.Host_spec.default in
          (match Api.Handlers.run h (C.Hello { version = C.version }) with
          | Resp.Hello_ok { version; mode; preset } ->
            Alcotest.(check int) "version" C.version version;
            Alcotest.(check string) "mode" "host" mode;
            Alcotest.(check string) "preset" "two-socket" preset
          | _ -> Alcotest.fail "expected Hello_ok");
          (match Api.Handlers.run h (C.Subscribe C.S_telemetry) with
          | Resp.Ack -> ()
          | _ -> Alcotest.fail "expected Ack");
          match Api.Handlers.run h C.Shutdown with
          | Resp.Bye -> ()
          | _ -> Alcotest.fail "expected Bye");
      tc "unknown device comes back as Failed, exit 1" (fun () ->
          let h = Api.Handlers.local Api.Host_spec.default in
          match Api.Handlers.run h (C.Ping { src = "nope"; dst = "socket0"; count = 1; load = false })
          with
          | Resp.Err ((Err.Invalid msg | Err.Failed msg) as e) ->
            Alcotest.(check int) "exit code" 1 (Err.exit_code e);
            Alcotest.(check bool) "message names the device" true
              (String.length msg >= 14 && String.sub msg (String.length msg - 14) 14 = "no device nope")
          | _ -> Alcotest.fail "expected Err Invalid/Failed");
      tc "admission refusal crosses as the typed Mgr payload" (fun () ->
          let h = Api.Handlers.local Api.Host_spec.default in
          let greedy =
            R.Intent.pipe ~tenant:1 ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbytes_per_s 5000.0)
          in
          match Api.Handlers.run h (C.Submit greedy) with
          | Resp.Err (Err.Mgr (R.Mgr_error.Capacity_exhausted { tenant; _ }) as e) ->
            Alcotest.(check int) "tenant" 1 tenant;
            Alcotest.(check int) "exit code" 16 (Err.exit_code e)
          | _ -> Alcotest.fail "expected Capacity_exhausted");
      tc "a NaN submit rate is Invalid_intent, not a capacity refusal" (fun () ->
          let h = Api.Handlers.local Api.Host_spec.default in
          match
            Api.Handlers.run h
              (C.Submit (R.Intent.pipe ~tenant:9 ~src:"nic0" ~dst:"socket0" ~rate:Float.nan))
          with
          | Resp.Err (Err.Mgr (R.Mgr_error.Invalid_intent _) as e) ->
            Alcotest.(check int) "exit code" 10 (Err.exit_code e)
          | r -> Alcotest.failf "expected Invalid_intent, got %s" (show r));
      tc "a fleet submit with a NaN or negative rate is Invalid_intent" (fun () ->
          let ctl = Ihnet_fleet.Controller.create ~seed:3 () in
          let h = Api.Handlers.create ~spec:Api.Host_spec.default (Api.Handlers.Fleet ctl) in
          (match Api.Handlers.run h (C.Fleet_spawn { name = "h0"; preset = "minimal" }) with
          | Resp.Ack -> ()
          | r -> Alcotest.failf "spawn: %s" (show r));
          let submit tenant rate =
            Api.Handlers.run h
              (C.Fleet_submit (R.Intent.pipe ~tenant ~src:"nic0" ~dst:"socket0" ~rate))
          in
          (match submit 1 1e9 with Resp.Ack -> () | r -> Alcotest.failf "valid: %s" (show r));
          let before = Ihnet_fleet.Controller.tenants ctl in
          List.iter
            (fun rate ->
              match submit 2 rate with
              | Resp.Err (Err.Mgr (R.Mgr_error.Invalid_intent _) as e) ->
                Alcotest.(check int) "exit code" 10 (Err.exit_code e)
              | r -> Alcotest.failf "rate %g: expected Invalid_intent, got %s" rate (show r))
            [ Float.nan; -1.0 ];
          Alcotest.(check (list int)) "tenants unchanged" before
            (Ihnet_fleet.Controller.tenants ctl));
      tc "a fleet_run with rounds <= 0 is Invalid and runs no round" (fun () ->
          let ctl = Ihnet_fleet.Controller.create ~seed:3 () in
          let h = Api.Handlers.create ~spec:Api.Host_spec.default (Api.Handlers.Fleet ctl) in
          (match Api.Handlers.run h (C.Fleet_run { rounds = 1 }) with
          | Resp.Ack -> ()
          | r -> Alcotest.failf "valid run: %s" (show r));
          let before = Ihnet_fleet.Controller.rounds ctl in
          List.iter
            (fun rounds ->
              match Api.Handlers.run h (C.Fleet_run { rounds }) with
              | Resp.Err (Err.Invalid why as e) ->
                Alcotest.(check int) "exit code" 1 (Err.exit_code e);
                Alcotest.(check string) "names rounds"
                  (Printf.sprintf "fleet_run: rounds must be > 0 (got %d)" rounds)
                  why
              | r -> Alcotest.failf "rounds %d: expected Invalid, got %s" rounds (show r))
            [ 0; -3 ];
          Alcotest.(check int) "rounds unchanged" before (Ihnet_fleet.Controller.rounds ctl));
      tc "flow_stop of an unknown or stopped id is refused as no flow N" (fun () ->
          let h = Api.Handlers.local Api.Host_spec.default in
          let stop flow = Api.Handlers.run h (C.Flow_stop { flow }) in
          let refused flow =
            match stop flow with
            | Resp.Err (Err.Failed m as e) ->
              Alcotest.(check string) "message" (Printf.sprintf "no flow %d" flow) m;
              Alcotest.(check int) "exit code" 1 (Err.exit_code e)
            | r -> Alcotest.failf "stop %d: expected Failed, got %s" flow (show r)
          in
          refused 12345;
          match
            Api.Handlers.run h
              (C.Flow_start { tenant = 1; src = "ext"; dst = "socket0"; gbps = Some 1.0 })
          with
          | Resp.Flow_ok { flow } ->
            (match stop flow with Resp.Ack -> () | r -> Alcotest.failf "stop: %s" (show r));
            refused flow
          | r -> Alcotest.failf "start: %s" (show r));
      tc "fleet command on a host target is Unsupported, exit 4" (fun () ->
          let h = Api.Handlers.local Api.Host_spec.default in
          match Api.Handlers.run h (C.Fleet_run { rounds = 1 }) with
          | Resp.Err (Err.Unsupported _ as e) -> Alcotest.(check int) "exit code" 4 (Err.exit_code e)
          | _ -> Alcotest.fail "expected Err Unsupported");
      tc "host spec presets round-trip and reject junk" (fun () ->
          List.iter
            (fun name ->
              match Api.Host_spec.preset_of_name name with
              | Ok p -> Alcotest.(check string) name name (Api.Host_spec.preset_name p)
              | Error e -> Alcotest.fail e)
            [ "two-socket"; "dgx"; "epyc"; "minimal" ];
          match Api.Host_spec.preset_of_name "bogus" with
          | Ok _ -> Alcotest.fail "accepted a bogus preset"
          | Error _ -> ());
      tc "host spec overrides reach the host config" (fun () ->
          let plain = Api.Host_spec.config Api.Host_spec.default in
          let tweaked = Api.Host_spec.config (Api.Host_spec.make ~ddio:false ~mps:512 ()) in
          Alcotest.(check bool) "overrides change the config" true (plain <> tweaked));
    ] )

(* ------------------------------------------------------------------ *)
(* Transport-level protocol errors (single-threaded, pumped server)    *)
(* ------------------------------------------------------------------ *)

let temp_socket tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ihnetd-%s-%d.sock" tag (Unix.getpid ()))

let pump srv n =
  for _ = 1 to n do
    ignore (Api.Server.step ~timeout:0.01 srv)
  done

(* a pumped server over [handlers] and one raw client socket to it *)
let with_server ?(handlers = Api.Handlers.local Api.Host_spec.default) tag f =
  let path = temp_socket tag in
  let srv = Api.Server.create handlers path in
  Fun.protect
    ~finally:(fun () -> Api.Server.stop srv)
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          f srv fd))

(* one command frame over [fd], pumped through [srv], and its reply *)
let call srv fd c =
  Api.Wire.write_frame fd (C.to_json c);
  pump srv 10;
  match Api.Wire.read_frame fd with
  | None -> Alcotest.fail "no reply"
  | Some j -> ( match Resp.of_json j with Ok r -> r | Error e -> Alcotest.fail e)

let hello srv fd =
  match call srv fd (C.Hello { version = C.version }) with
  | Resp.Hello_ok _ -> ()
  | r -> Alcotest.failf "hello: %s" (show r)

(* {2 The reply queue}

   A snapshot of a host carrying 2000 flows is a reply of about
   half a MB, more than a Unix socket buffers, so the server sends it
   in many partial writes. [snapshot_frame] is the frame a twin host
   built the same way answers, encoded directly. *)

let scan_snapshot = C.Scan { ms = 0.0; load = false; step = None; snapshot = true }

let loaded_handlers ?(flows = 2000) () =
  let host = Api.Host_spec.create_host (Api.Host_spec.make ~seed:5 ()) in
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let dev = Api.Host_spec.device_id topo in
  let paths =
    Array.map
      (fun (a, b) -> Option.get (Ihnet_topology.Routing.shortest_path topo (dev a) (dev b)))
      [| ("nic0", "socket0"); ("gpu0", "socket0"); ("ext", "socket1"); ("gpu1", "socket1") |]
  in
  Ihnet_engine.Fabric.batch fab (fun () ->
      for i = 0 to flows - 1 do
        ignore
          (Ihnet_engine.Fabric.start_flow fab ~tenant:(1 + (i mod 8))
             ~path:paths.(i mod Array.length paths) ~size:Ihnet_engine.Flow.Unbounded ())
      done);
  Ihnet.Host.run_for host 1e5;
  Api.Handlers.create ~spec:Api.Host_spec.default (Api.Handlers.Host host)

let snapshot_frame () =
  Api.Wire.encode (Resp.to_json (Api.Handlers.run (loaded_handlers ()) scan_snapshot))

let reply_queue_suite =
  ( "daemon reply queue",
    [
      tc "a snapshot read in small chunks arrives byte-identical" (fun () ->
          let want = snapshot_frame () in
          Alcotest.(check bool) "the frame outgrows a socket buffer" true
            (Bytes.length want > 400_000);
          with_server ~handlers:(loaded_handlers ()) "chunks" (fun srv fd ->
              hello srv fd;
              Api.Wire.write_frame fd (C.to_json scan_snapshot);
              let got = Buffer.create (Bytes.length want) and chunk = Bytes.create 1000 in
              let steps = ref 0 in
              while Buffer.length got < Bytes.length want && !steps < 100_000 do
                incr steps;
                ignore (Api.Server.step ~timeout:0.0 srv);
                match Unix.select [ fd ] [] [] 0.0 with
                | [], _, _ -> ()
                | _ -> Buffer.add_subbytes got chunk 0 (Unix.read fd chunk 0 (Bytes.length chunk))
              done;
              Alcotest.(check int) "length" (Bytes.length want) (Buffer.length got);
              let same = String.equal (Bytes.to_string want) (Buffer.contents got) in
              Alcotest.(check bool) "bytes" true same));
      tc "replies of mixed sizes read in random chunks arrive whole and in order" (fun () ->
          (* snapshots of a 300-flow host (about 80 KB) among bursts of
             Stats replies, read in chunks of 1 byte to 40 KB: the queue
             both grows and moves its unsent bytes to the front *)
          with_server ~handlers:(loaded_handlers ~flows:300 ()) "mixed" (fun srv fd ->
              hello srv fd;
              let rng = Random.State.make [| 11 |] in
              let rd = Api.Wire.reader () and buf = Bytes.create 65536 in
              let want = Queue.create () and got = ref 0 in
              let check j =
                match (Queue.pop want, Resp.of_json j) with
                | C.Stats, Ok (Resp.Stats_report _) | C.Scan _, Ok (Resp.Scan_report _) -> incr got
                | _, Ok r -> Alcotest.failf "reply %d: %s" !got (show r)
                | _, Error e -> Alcotest.failf "reply %d does not decode: %s" !got e
              in
              let read_some limit =
                match Unix.select [ fd ] [] [] 0.0 with
                | [], _, _ -> ()
                | _ ->
                  let n = Unix.read fd buf 0 (1 + Random.State.int rng limit) in
                  Api.Wire.feed rd buf n;
                  let rec pop () =
                    match Api.Wire.pop rd with
                    | Some j ->
                      check j;
                      pop ()
                    | None -> ()
                  in
                  pop ()
              in
              let send cmds =
                List.iter
                  (fun c ->
                    Queue.push c want;
                    Api.Wire.write_frame fd (C.to_json c))
                  cmds
              in
              for _ = 1 to 1000 do
                (match Random.State.int rng 10 with
                | 0 -> send [ scan_snapshot ]
                | 1 | 2 -> send (List.init (1 + Random.State.int rng 20) (fun _ -> C.Stats))
                | _ -> ());
                ignore (Api.Server.step ~timeout:0.0 srv);
                read_some (if Random.State.bool rng then 300 else 40_000)
              done;
              let sent = !got + Queue.length want and steps = ref 0 in
              while (not (Queue.is_empty want)) && !steps < 100_000 do
                incr steps;
                ignore (Api.Server.step ~timeout:0.0 srv);
                read_some 65_536
              done;
              Alcotest.(check int) "every reply arrived" sent !got));
      tc "with a stalled reader, a step allocates no more as replies pile up" (fun () ->
          let frame = Bytes.length (snapshot_frame ()) in
          (* the server is stopped with replies still queued to a
             closed socket: a write there must fail with EPIPE, not
             end the test process *)
          let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
          Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe) @@ fun () ->
          with_server ~handlers:(loaded_handlers ()) "stall" (fun srv fd ->
              hello srv fd;
              (* the client sends [n] snapshot requests and never reads;
                 the returned figure is what one more step allocates *)
              let step_bytes_after n =
                for _ = 1 to n do
                  Api.Wire.write_frame fd (C.to_json scan_snapshot)
                done;
                pump srv 5;
                let b0 = Gc.allocated_bytes () in
                ignore (Api.Server.step ~timeout:0.0 srv);
                Gc.allocated_bytes () -. b0
              in
              let one = step_bytes_after 1 in
              let four = step_bytes_after 3 in
              if four > one +. 1024.0 || four > float_of_int frame /. 16.0 then
                Alcotest.failf
                  "a step allocated %.0f bytes with one %d-byte reply queued, %.0f with four" one
                  frame four));
    ] )

let protocol_suite =
  ( "daemon protocol",
    [
      tc "version mismatch is refused and the connection closed" (fun () ->
          with_server "ver" (fun srv fd ->
              Api.Wire.write_frame fd (C.to_json (C.Hello { version = C.version + 1 }));
              pump srv 10;
              (match Api.Wire.read_frame fd with
              | Some j -> (
                match Resp.of_json j with
                | Ok (Resp.Err (Err.Protocol _)) -> ()
                | Ok _ -> Alcotest.fail "expected a protocol error"
                | Error e -> Alcotest.fail e)
              | None -> Alcotest.fail "no reply");
              pump srv 5;
              Alcotest.(check bool) "connection closed after refusal" true
                (Api.Wire.read_frame fd = None)));
      tc "command before hello is refused" (fun () ->
          with_server "hello" (fun srv fd ->
              Api.Wire.write_frame fd (C.to_json C.Stats);
              pump srv 10;
              match Api.Wire.read_frame fd with
              | Some j -> (
                match Resp.of_json j with
                | Ok (Resp.Err (Err.Protocol _)) -> ()
                | Ok _ -> Alcotest.fail "expected a protocol error"
                | Error e -> Alcotest.fail e)
              | None -> Alcotest.fail "no reply"));
    ] )

(* ------------------------------------------------------------------ *)
(* Bad fields: refused before any effect, and the daemon keeps serving  *)
(* ------------------------------------------------------------------ *)

(* Each frame once killed ihnetd through an engine assertion. Now it
   must get exactly one [Invalid] reply naming the field, leave the
   host's clock, reallocation count and installed link faults
   untouched (the ping asks for [--load], which used to start its
   aggressors before the refusal), and the next command on the same
   connection must still be answered. *)
let bad_field_case name cmd want =
  tc (name ^ " is Invalid and the daemon keeps serving") (fun () ->
      let handlers = Api.Handlers.local Api.Host_spec.default in
      let host = Option.get (Api.Handlers.host handlers) in
      with_server ~handlers "bad" (fun srv fd ->
          hello srv fd;
          let fab = Ihnet.Host.fabric host in
          let state () =
            let faulty =
              List.filter
                (fun (l : Ihnet_topology.Link.t) ->
                  Ihnet_engine.Fabric.fault_of fab l.Ihnet_topology.Link.id
                  <> Ihnet_engine.Fault.healthy)
                (Ihnet_topology.Topology.links (Ihnet.Host.topology host))
            in
            (Ihnet.Host.now host, Ihnet_engine.Fabric.reallocations fab, List.length faulty)
          in
          let before = state () in
          (match call srv fd cmd with
          | Resp.Err (Err.Invalid m) -> Alcotest.(check string) "names the field" want m
          | r -> Alcotest.failf "expected Invalid, got %s" (show r));
          Alcotest.(check (triple (float 0.0) int int)) "no effect" before (state ());
          match call srv fd C.Stats with
          | Resp.Stats_report _ -> ()
          | r -> Alcotest.failf "next command: %s" (show r)))

let fault ?(factor = 0.5) ?(extra_us = 0.0) ?(loss = 0.0) () =
  C.Fault_inject { a = "gpu0"; b = "pciesw0"; factor; extra_us; loss }

let plan headroom = C.Plan { pipes = [ ("ext", "socket0", 10.0) ]; hoses = []; headroom }

(* [load] would start aggressors, so a refusal after it shows up as
   reallocations *)
let monitor period_us = C.Monitor { ms = 1.0; period_us; series = None; load = true }

let bad_field_suite =
  ( "daemon bad fields",
    [
      bad_field_case "ping count:-5"
        (C.Ping { src = "nic0"; dst = "dimm0.0.0"; count = -5; load = true })
        "ping: count must be > 0 (got -5)";
      bad_field_case "run_for ms:-1" (C.Run_for { ms = -1.0 })
        "run_for: ms must be finite and >= 0 (got -1)";
      bad_field_case "run_for ms:nan" (C.Run_for { ms = Float.nan })
        "run_for: ms must be finite and >= 0 (got nan)";
      bad_field_case "latency ms:-5" (C.Latency { link = false; ms = -5.0; load = false })
        "latency: ms must be finite and >= 0 (got -5)";
      bad_field_case "fault_inject factor:2" (fault ~factor:2.0 ())
        "fault_inject: factor must be in [0, 1] (got 2)";
      bad_field_case "fault_inject factor:nan" (fault ~factor:Float.nan ())
        "fault_inject: factor must be in [0, 1] (got nan)";
      bad_field_case "fault_inject loss:1.5" (fault ~loss:1.5 ())
        "fault_inject: loss must be in [0, 1] (got 1.5)";
      bad_field_case "fault_inject extra_us:-1" (fault ~extra_us:(-1.0) ())
        "fault_inject: extra_us must be finite and >= 0 (got -1)";
      bad_field_case "fault_inject extra_us:inf" (fault ~extra_us:Float.infinity ())
        "fault_inject: extra_us must be finite and >= 0 (got inf)";
      bad_field_case "heal factor:2"
        (C.Heal
           {
             src = "gpu0";
             dst = "nic0";
             gbps = 10.0;
             fault = None;
             factor = 2.0;
             silent = false;
             flap = None;
             ms = 5.0;
           })
        "heal: factor must be in [0, 1] (got 2)";
      bad_field_case "plan headroom:1.5" (plan 1.5) "plan: headroom must be in (0, 1] (got 1.5)";
      bad_field_case "plan headroom:0" (plan 0.0) "plan: headroom must be in (0, 1] (got 0)";
      bad_field_case "plan headroom:nan" (plan Float.nan)
        "plan: headroom must be in (0, 1] (got nan)";
      bad_field_case "monitor period_us:0" (monitor 0.0)
        "monitor: period_us must be finite and > 0 (got 0)";
      bad_field_case "monitor period_us:-5" (monitor (-5.0))
        "monitor: period_us must be finite and > 0 (got -5)";
      bad_field_case "monitor period_us:nan" (monitor Float.nan)
        "monitor: period_us must be finite and > 0 (got nan)";
    ] )

(* ------------------------------------------------------------------ *)
(* The socket path: only a stale socket is ever replaced               *)
(* ------------------------------------------------------------------ *)

let refused what path f =
  match f () with
  | exception Failure m ->
    if not (String.starts_with ~prefix:path m) then
      Alcotest.failf "%s: error %S does not name %s" what m path
  | srv ->
    Api.Server.stop srv;
    Alcotest.failf "%s: create took over %s" what path

let socket_path_suite =
  ( "daemon socket path",
    [
      tc "a regular file is refused and keeps its bytes" (fun () ->
          let path = temp_socket "file" in
          Out_channel.with_open_bin path (fun oc -> output_string oc "important");
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              refused "regular file" path (fun () ->
                  Api.Server.create (Api.Handlers.local Api.Host_spec.default) path);
              Alcotest.(check string) "bytes unchanged" "important"
                (In_channel.with_open_bin path In_channel.input_all)));
      tc "a live server's socket is refused and it keeps serving" (fun () ->
          with_server "live" (fun srv fd ->
              hello srv fd;
              refused "live socket" (temp_socket "live") (fun () ->
                  Api.Server.create (Api.Handlers.local Api.Host_spec.default) (temp_socket "live"));
              match call srv fd C.Stats with
              | Resp.Stats_report _ -> ()
              | r -> Alcotest.failf "first server: %s" (show r)));
      tc "a stale socket is replaced" (fun () ->
          let path = temp_socket "stale" in
          (* bound, never listened on, closed: connecting is refused *)
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind fd (Unix.ADDR_UNIX path);
          Unix.close fd;
          with_server "stale" (fun srv fd ->
              hello srv fd;
              match call srv fd C.Stats with
              | Resp.Stats_report _ -> ()
              | r -> Alcotest.failf "new server: %s" (show r)));
    ] )

(* ------------------------------------------------------------------ *)
(* Integration: one server, four concurrent clients, recorded session  *)
(* ------------------------------------------------------------------ *)

let not_err name = function
  | Resp.Err e -> Alcotest.fail (Printf.sprintf "%s: %s" name (Err.message e))
  | r -> r

let integration () =
  let path = temp_socket "integ" in
  let spec = Api.Host_spec.make ~seed:7 () in
  let host = Api.Host_spec.create_host spec in
  let buf = Buffer.create 65536 in
  let recorder =
    Rec.Recorder.attach ~label:"test-daemon" ~seed:7 ~digest_every:4
      ~sink:(Rec.Recorder.buffer_sink buf) (Ihnet.Host.fabric host)
  in
  let handlers = Api.Handlers.create ~recorder ~spec (Api.Handlers.Host host) in
  let srv = Api.Server.create ~push_every:1 handlers path in
  let server = Thread.create (fun () -> Api.Server.serve srv) () in
  let errors = ref [] in
  let errors_mu = Mutex.create () in
  let fail msg =
    Mutex.lock errors_mu;
    errors := msg :: !errors;
    Mutex.unlock errors_mu
  in
  (* all four workers hold their connection open until everyone has
     connected, so the server demonstrably serves 4 clients at once *)
  let connected = Atomic.make 0 in
  let peak = Atomic.make 0 in
  let worker i =
    try
      let c = Api.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Api.Client.close c)
        (fun () ->
          Atomic.incr connected;
          while Atomic.get connected < 4 do
            Thread.yield ()
          done;
          (match Api.Client.call c C.Stats with
          | Resp.Stats_report { clients; _ } ->
            let rec bump () =
              let seen = Atomic.get peak in
              if clients > seen && not (Atomic.compare_and_set peak seen clients) then bump ()
            in
            bump ()
          | r -> ignore (not_err "stats" r));
          let dst = if i mod 2 = 0 then "socket0" else "socket1" in
          let flow =
            match
              Api.Client.call c (C.Flow_start { tenant = i; src = "ext"; dst; gbps = Some 1.0 })
            with
            | Resp.Flow_ok { flow } -> Some flow
            | r ->
              ignore (not_err "flow start" r);
              None
          in
          ignore (not_err "run" (Api.Client.call c (C.Run_for { ms = 0.05 })));
          if i = 0 then begin
            ignore
              (not_err "fault"
                 (Api.Client.call c
                    (C.Fault_inject
                       { a = "rp0.0"; b = "pciesw0"; factor = 0.5; extra_us = 0.0; loss = 0.0 })));
            ignore (not_err "clear" (Api.Client.call c (C.Fault_clear { a = "rp0.0"; b = "pciesw0" })))
          end;
          (match flow with
          | Some flow -> ignore (not_err "flow stop" (Api.Client.call c (C.Flow_stop { flow })))
          | None -> ()))
    with e -> fail (Printexc.to_string e)
  in
  let workers = List.init 4 (fun i -> Thread.create worker i) in
  List.iter Thread.join workers;
  (* one last client scans the fabric and shuts the daemon down (the
     scan's thaw may drain queued events, so the frozen digest it
     reports is not compared against the final state below) *)
  (let c = Api.Client.connect path in
   Fun.protect
     ~finally:(fun () -> Api.Client.close c)
     (fun () ->
       ignore
         (not_err "scan"
            (Api.Client.call c (C.Scan { ms = 0.1; load = false; step = None; snapshot = false })));
       match Api.Client.call c C.Shutdown with
       | Resp.Bye -> ()
       | r -> ignore (not_err "shutdown" r)));
  Thread.join server;
  Rec.Recorder.stop recorder;
  Alcotest.(check (list string)) "no client errors" [] !errors;
  Alcotest.(check bool)
    (Printf.sprintf "served 4 concurrent clients (peak %d)" (Atomic.get peak))
    true
    (Atomic.get peak >= 4);
  (* the recorded session replays bit-for-bit *)
  let trace =
    match Rec.Trace.parse (Buffer.contents buf) with
    | Ok t -> t
    | Error e -> Alcotest.fail ("trace parse: " ^ e)
  in
  (match Rec.Replay.run trace with
  | Error e -> Alcotest.fail ("replay: " ^ e)
  | Ok report ->
    if not (Rec.Replay.ok report) then
      Alcotest.fail (Format.asprintf "%a" Rec.Replay.pp_report report);
    Alcotest.(check bool) "digests were checked" true (report.Rec.Replay.digests_checked > 0));
  (* and the replayed final state matches the daemon's, register by
     register, out of band *)
  match Rec.Replay.scan_reference trace with
  | Error e -> Alcotest.fail ("scan reference: " ^ e)
  | Ok refs -> (
    match List.assoc_opt (-1) refs with
    | None -> Alcotest.fail "no final reference snapshot"
    | Some replayed -> (
      let live = Rec.Scanport.capture (Ihnet.Host.fabric host) in
      match Rec.Scanport.diff ~scope:`Arch live replayed with
      | None -> ()
      | Some m -> Alcotest.fail (Format.asprintf "%a" Rec.Scanport.pp_mismatch m)))

let integration_suite = ("daemon integration", [ tc "4 concurrent clients, replayed" integration ])

let suites =
  [
    codec_suite;
    framing_suite;
    exit_code_suite;
    handlers_suite;
    protocol_suite;
    reply_queue_suite;
    bad_field_suite;
    socket_path_suite;
    integration_suite;
  ]
