module E = Ihnet_engine
module M = Ihnet_manager
module T = Ihnet_topology
module U = Ihnet_util

type scenario = { name : string; seed : int; drive : sink:(Trace.line -> unit) -> unit }

let name s = s.name

(* Every scenario runs on the two-socket preset: it has every figure-1
   link class, alternate inter-socket routes for remediation to migrate
   onto, and it is replayable by name. *)
let fresh ~seed =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create ~seed sim topo in
  (topo, sim, fab)

let run_for sim ns = E.Sim.run ~until:(E.Sim.now sim +. ns) sim

(* E1-like: one probe per figure-1 link class, then the socket-0 DIMM
   channels together, then a bounded DMA so the trace carries
   completion annotations. *)
let drive_e1 ~sink =
  let topo, sim, fab = fresh ~seed:7 in
  let r = Recorder.attach ~digest_every:4 ~label:"golden-e1" ~seed:7 ~sink fab in
  let probe a b =
    let f =
      E.Fabric.start_flow fab ~tenant:1 ~cls:E.Flow.Probe ~path:(T.Routing.route topo a b)
        ~size:E.Flow.Unbounded ()
    in
    run_for sim (U.Units.ms 1.0);
    E.Fabric.stop_flow fab f
  in
  probe "socket0" "socket1";
  probe "nic0" "socket0";
  probe "gpu0" "ssd0";
  probe "gpu0" "ext";
  let mems =
    List.filter_map
      (fun (d : T.Device.t) ->
        match d.T.Device.kind with
        | T.Device.Dimm _ when d.T.Device.socket = 0 ->
          Some
            (E.Fabric.start_flow fab ~tenant:2 ~cls:E.Flow.Probe
               ~path:(T.Routing.route topo "socket0" d.T.Device.name)
               ~size:E.Flow.Unbounded ())
        | _ -> None)
      (T.Topology.devices topo)
  in
  run_for sim (U.Units.ms 1.0);
  List.iter (E.Fabric.stop_flow fab) mems;
  ignore
    (E.Fabric.start_flow fab ~tenant:3 ~path:(T.Routing.route topo "ext" "socket0")
       ~size:(E.Flow.Bytes (U.Units.mib 64.0)) ());
  run_for sim (U.Units.ms 5.0);
  Recorder.stop r

(* E5-like: two DDIO writers thrashing the I/O ways, then the same load
   with DDIO off and on again (config swaps land in the trace), then a
   bounded LLC-target transfer for completions. *)
let drive_e5 ~sink =
  let topo, sim, fab = fresh ~seed:5 in
  let r = Recorder.attach ~digest_every:4 ~label:"golden-e5" ~seed:5 ~sink fab in
  let writer n =
    E.Fabric.start_flow fab ~tenant:1 ~llc_target:true ~path:(T.Routing.route topo n "socket0")
      ~size:E.Flow.Unbounded ()
  in
  let w0 = writer "nic0" in
  let w1 = writer "nic1" in
  run_for sim (U.Units.ms 1.0);
  E.Fabric.set_config fab { T.Hostconfig.default with T.Hostconfig.ddio = T.Hostconfig.Ddio_off };
  run_for sim (U.Units.ms 1.0);
  E.Fabric.set_config fab T.Hostconfig.default;
  run_for sim (U.Units.ms 1.0);
  ignore
    (E.Fabric.start_flow fab ~tenant:2 ~llc_target:true
       ~path:(T.Routing.route topo "nic0" "socket0")
       ~size:(E.Flow.Bytes (U.Units.mib 32.0)) ());
  run_for sim (U.Units.ms 3.0);
  E.Fabric.stop_flow fab w0;
  E.Fabric.stop_flow fab w1;
  run_for sim (U.Units.ms 0.5);
  Recorder.stop r

(* E17-like: a guaranteed pipe, an announced degrade on its path that
   remediation routes around, recovery after the clear, then a flapping
   link to exercise hold-down. Manager and supervisor actions reach the
   fabric as ordinary commands, so the trace replays without either. *)
let drive_e17 ~sink =
  let _topo, sim, fab = fresh ~seed:17 in
  let r = Recorder.attach ~digest_every:4 ~label:"golden-e17" ~seed:17 ~sink fab in
  let mgr = M.Manager.create fab () in
  let rem = M.Remediation.create mgr in
  Recorder.observe_remediation r rem;
  M.Manager.start_shim mgr ~period:(U.Units.us 50.0);
  M.Remediation.start rem;
  let rate = U.Units.gbytes_per_s 10.0 in
  let p =
    match M.Manager.submit mgr (M.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate) with
    | Ok [ p ] -> p
    | Ok _ -> failwith "golden-e17: expected one placement"
    | Error e -> failwith ("golden-e17: admission refused: " ^ M.Mgr_error.to_string e)
  in
  let f =
    E.Fabric.start_flow fab ~tenant:1 ~demand:rate ~path:p.M.Placement.path
      ~size:E.Flow.Unbounded ()
  in
  ignore (M.Manager.attach mgr f);
  run_for sim (U.Units.ms 2.0);
  let hop n = (List.nth p.M.Placement.path.T.Path.hops n).T.Path.link.T.Link.id in
  let sick = E.Fault.degrade ~capacity_factor:0.05 () in
  let bad = hop 1 in
  E.Fabric.inject_fault fab bad sick;
  run_for sim (U.Units.ms 10.0);
  E.Fabric.clear_fault fab bad;
  run_for sim (U.Units.ms 5.0);
  E.Fabric.flap_link fab (hop 0) sick ~period:(U.Units.ms 1.0) ~toggles:6;
  run_for sim (U.Units.ms 10.0);
  M.Remediation.stop rem;
  M.Manager.stop_shim mgr;
  Recorder.stop r

let scenarios =
  [
    { name = "e1"; seed = 7; drive = drive_e1 };
    { name = "e5"; seed = 5; drive = drive_e5 };
    { name = "e17"; seed = 17; drive = drive_e17 };
  ]

let find n = List.find_opt (fun s -> s.name = n) scenarios

let record ?tee sc =
  let acc = ref [] in
  let sink l =
    acc := l :: !acc;
    match tee with Some f -> f l | None -> ()
  in
  sc.drive ~sink;
  match Trace.of_lines (List.rev !acc) with
  | Ok t -> t
  | Error e -> failwith ("golden: recorded an unparsable trace: " ^ e)

type fingerprint = {
  g_scenario : string;
  g_seed : int;
  g_version : int;
  g_lines : int;
  g_final : Trace.digest;
  g_trace : int64;
}

let fingerprint_of sc (t : Trace.t) =
  let final =
    match List.filter_map (function Trace.Final d -> Some d | _ -> None) t.Trace.lines with
    | [ d ] -> d
    | _ -> failwith "golden: trace has no single final digest"
  in
  {
    g_scenario = sc.name;
    g_seed = sc.seed;
    g_version = t.Trace.header.Trace.version;
    g_lines = 1 + List.length t.Trace.lines;
    g_final = final;
    g_trace = Trace.fingerprint t;
  }

let fingerprint_to_string f =
  Trace.json_to_string
    (Trace.Obj
       [
         ("scenario", Trace.Str f.g_scenario);
         ("seed", Trace.jint f.g_seed);
         ("version", Trace.jint f.g_version);
         ("lines", Trace.jint f.g_lines);
         ("final", Trace.digest_to_json f.g_final);
         ("trace", Trace.jhash f.g_trace);
       ])

let fingerprint_of_string s =
  match
    let j = Trace.json_of_string (String.trim s) in
    {
      g_scenario = Trace.as_string (Trace.field j "scenario");
      g_seed = Trace.as_int (Trace.field j "seed");
      g_version = Trace.as_int (Trace.field j "version");
      g_lines = Trace.as_int (Trace.field j "lines");
      g_final = Trace.digest_of_json (Trace.field j "final");
      g_trace = Trace.as_hash (Trace.field j "trace");
    }
  with
  | f -> Ok f
  | exception Trace.Parse_error e -> Error e

let save_fingerprint path f =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (fingerprint_to_string f);
      Out_channel.output_char oc '\n')

let load_fingerprint path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> fingerprint_of_string s
  | exception Sys_error e -> Error e

let diff ~expected ~actual =
  let out = ref [] in
  let chk label pp a b = if a <> b then out := Printf.sprintf "%s: golden %s, got %s" label (pp a) (pp b) :: !out in
  let str x = x in
  let int = string_of_int in
  let hash = Printf.sprintf "0x%016Lx" in
  let flt = Printf.sprintf "%.17g" in
  chk "scenario" str expected.g_scenario actual.g_scenario;
  chk "seed" int expected.g_seed actual.g_seed;
  chk "version" int expected.g_version actual.g_version;
  chk "lines" int expected.g_lines actual.g_lines;
  chk "final.at" flt expected.g_final.Trace.d_at actual.g_final.Trace.d_at;
  chk "final.epoch" int expected.g_final.Trace.d_epoch actual.g_final.Trace.d_epoch;
  chk "final.flows" int expected.g_final.Trace.d_flows actual.g_final.Trace.d_flows;
  chk "final.alloc" hash expected.g_final.Trace.d_alloc actual.g_final.Trace.d_alloc;
  chk "final.floor" hash expected.g_final.Trace.d_floor actual.g_final.Trace.d_floor;
  chk "final.bytes" hash expected.g_final.Trace.d_bytes actual.g_final.Trace.d_bytes;
  chk "trace" hash expected.g_trace actual.g_trace;
  List.rev !out

let regenerate ~dir =
  List.map
    (fun sc ->
      let fp = fingerprint_of sc (record sc) in
      let path = Filename.concat dir (sc.name ^ ".json") in
      save_fingerprint path fp;
      (path, fp))
    scenarios
