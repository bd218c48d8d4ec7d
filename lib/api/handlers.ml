module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module Mon = Ihnet_monitor
module R = Ihnet_manager
module Rec = Ihnet_record
module F = Ihnet_fleet
module C = Command
module Resp = Response

type target =
  | Host of Ihnet.Host.t
  | Fleet of F.Controller.t

type t = {
  target : target;
  spec : Host_spec.t;
  recorder : Rec.Recorder.t option;
  mutable commands : int;
  mutable clients : int;
  mutable rem_observed : bool;
}

let create ?recorder ~spec target =
  { target; spec; recorder; commands = 0; clients = 0; rem_observed = false }

let local spec = create ~spec (Host (Host_spec.create_host spec))

let host t = match t.target with Host h -> Some h | Fleet _ -> None
let commands t = t.commands
let set_clients t n = t.clients <- n

(* the standard aggressor mix diagnostics run against with [--load] *)
let apply_load host load =
  if load then begin
    let fab = Ihnet.Host.fabric host in
    (try ignore (W.Rdma.start_loopback fab ~tenant:8 ~nic:"nic0" ()) with Invalid_argument _ -> ());
    (try
       ignore
         (W.Mltrain.start fab
            {
              (W.Mltrain.default_config ~tenant:9 ~gpu:"gpu0" ~data_source:"dimm0.0.0") with
              W.Mltrain.compute_time = 0.0;
            })
     with Invalid_argument _ -> ());
    Ihnet.Host.run_for host (U.Units.ms 2.0)
  end

let asp pp v = Format.asprintf "%a" pp v

(* remediation actions become trace annotations the first time the
   supervisor is enabled under a recorded session *)
let enable_remediation t host ?config ?wiring () =
  let rem = Ihnet.Host.enable_remediation host ?config ?wiring () in
  (match t.recorder with
  | Some r when not t.rem_observed ->
    t.rem_observed <- true;
    Rec.Recorder.observe_remediation r rem
  | _ -> ());
  rem

(* {1 Host command bodies} *)

let topo host dot =
  let topo = Ihnet.Host.topology host in
  if dot then Resp.Topo_dot (T.Topology.to_dot topo)
  else begin
    let name id = (T.Topology.device topo id).T.Device.name in
    Resp.Topo_report
      {
        summary = T.Topology.summary topo;
        config = asp T.Hostconfig.pp (T.Topology.config topo);
        links =
          List.map
            (fun (l : T.Link.t) ->
              {
                Resp.l_id = l.T.Link.id;
                l_kind = T.Link.kind_label l.T.Link.kind;
                l_a = name l.T.Link.a;
                l_b = name l.T.Link.b;
                l_capacity = l.T.Link.capacity;
                l_latency = l.T.Link.base_latency;
              })
            (T.Topology.links topo);
      }
  end

let ping host ~src ~dst ~count ~load =
  apply_load host load;
  let report =
    Mon.Diagnostics.ping (Ihnet.Host.fabric host) ~src ~dst ~count ~interval:(U.Units.us 100.0)
      ()
  in
  Ihnet.Host.run_for host (U.Units.ms (0.2 *. float_of_int count));
  let r = report.Mon.Diagnostics.rtts in
  Resp.Ping_report
    {
      src;
      dst;
      sent = report.Mon.Diagnostics.sent;
      lost = report.Mon.Diagnostics.lost;
      rtt =
        (if U.Sketch.count r > 0 then
           Some
             ( U.Sketch.min_value r,
               U.Sketch.percentile r 0.5,
               U.Sketch.percentile r 0.99,
               U.Sketch.max_value r )
         else None);
    }

let path_trace host ~src ~dst ~load =
  apply_load host load;
  Resp.Trace_report
    {
      src;
      dst;
      hops =
        List.map
          (fun (h : Mon.Diagnostics.trace_hop) ->
            {
              Resp.h_device = h.Mon.Diagnostics.hop_device;
              h_kind = h.Mon.Diagnostics.link_kind;
              h_class = h.Mon.Diagnostics.figure1_class;
              h_base = h.Mon.Diagnostics.base_latency;
              h_loaded = h.Mon.Diagnostics.loaded_latency;
              h_util = h.Mon.Diagnostics.utilization;
            })
          (Mon.Diagnostics.trace (Ihnet.Host.fabric host) ~src ~dst);
    }

let perf host ~src ~dst ~load =
  apply_load host load;
  let fab = Ihnet.Host.fabric host in
  let result = ref None and bottleneck = ref None in
  Mon.Diagnostics.perf fab ~src ~dst ~duration:(U.Units.ms 10.0)
    ~on_done:(fun r ->
      result :=
        Some (r.Mon.Diagnostics.bytes_moved, r.Mon.Diagnostics.duration, r.Mon.Diagnostics.achieved_rate);
      match r.Mon.Diagnostics.bottleneck with
      | Some (link, u) ->
        let topo = Ihnet.Host.topology host in
        let l = T.Topology.link topo link in
        let name id = (T.Topology.device topo id).T.Device.name in
        bottleneck := Some (name l.T.Link.a, name l.T.Link.b, u)
      | None -> ())
    ();
  Ihnet.Host.run_for host (U.Units.ms 11.0);
  Resp.Perf_report { src; dst; result = !result; bottleneck = !bottleneck }

let dump host ~a ~b ~load =
  apply_load host load;
  let topo = Ihnet.Host.topology host in
  match
    T.Topology.links_between topo (T.Topology.device_named topo a).T.Device.id
      (T.Topology.device_named topo b).T.Device.id
  with
  | [] -> Resp.Dump_report { a; b; found = false; flows = [] }
  | l :: _ ->
    Resp.Dump_report
      {
        a;
        b;
        found = true;
        flows =
          List.map
            (fun (c : Mon.Diagnostics.captured_flow) ->
              {
                Resp.f_id = c.Mon.Diagnostics.flow_id;
                f_tenant = c.Mon.Diagnostics.tenant;
                f_cls = c.Mon.Diagnostics.cls;
                f_src = c.Mon.Diagnostics.src_dev;
                f_dst = c.Mon.Diagnostics.dst_dev;
                f_rate = c.Mon.Diagnostics.rate;
              })
            (Mon.Diagnostics.dump (Ihnet.Host.fabric host) ~link:l.T.Link.id ());
      }

let check host = Resp.Check_report (Ihnet.Host.check_configuration host)

let heartbeat host ~degrade =
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let hb = Ihnet.Host.start_heartbeats host () in
  Ihnet.Host.run_for host (U.Units.ms 10.0);
  let injected =
    match degrade with
    | Some (a, b) ->
      E.Fabric.inject_fault fab (T.Topology.link_named topo a b).T.Link.id
        { E.Fault.capacity_factor = 1.0; extra_latency = U.Units.us 5.0; loss_prob = 0.0 };
      Some (a, b)
    | None -> None
  in
  Ihnet.Host.run_for host (U.Units.ms 10.0);
  let name id = (T.Topology.device topo id).T.Device.name in
  Resp.Heartbeat_report
    {
      injected;
      rounds = Mon.Heartbeat.rounds hb;
      failing = List.length (Mon.Heartbeat.failing_pairs hb);
      first = Mon.Heartbeat.first_detection hb;
      suspects =
        List.map
          (fun (s : Mon.Heartbeat.suspect) ->
            let l = T.Topology.link topo s.Mon.Heartbeat.link in
            { Resp.su_a = name l.T.Link.a; su_b = name l.T.Link.b; su_score = s.Mon.Heartbeat.score })
          (Mon.Heartbeat.localize hb);
    }

let heal t host ~src ~dst ~gbps ~fault_link ~factor ~silent ~flap ~ms =
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let mgr = Ihnet.Host.enable_manager host () in
  let rate = U.Units.gbps gbps in
  let p =
    match R.Manager.submit mgr (R.Intent.pipe ~tenant:1 ~src ~dst ~rate) with
    | Ok [ p ] -> p
    | Ok _ -> failwith "expected one placement"
    | Error e -> failwith ("intent rejected: " ^ R.Manager.error_to_string e)
  in
  let f =
    E.Fabric.start_flow fab ~tenant:1 ~demand:rate ~path:p.R.Placement.path
      ~size:E.Flow.Unbounded ()
  in
  ignore (R.Manager.attach mgr f);
  let config = { R.Remediation.default_config with R.Remediation.use_fault_events = not silent } in
  let rem =
    enable_remediation t host ~config
      ~wiring:{ Ihnet.Host.default_wiring with Ihnet.Host.heartbeat = silent }
      ()
  in
  (* heartbeat needs warm-up rounds to learn RTT baselines *)
  Ihnet.Host.run_for host (U.Units.ms (if silent then 10.0 else 2.0));
  let tenant_rate () =
    E.Fabric.refresh fab;
    List.fold_left
      (fun acc (g : E.Flow.t) ->
        if g.E.Flow.tenant = 1 && g.E.Flow.cls = E.Flow.Payload then acc +. g.E.Flow.rate
        else acc)
      0.0 (E.Fabric.active_flows fab)
  in
  let pre = tenant_rate () in
  let bad =
    match fault_link with
    | Some (a, b) -> (T.Topology.link_named topo a b).T.Link.id
    | None -> (
      match p.R.Placement.path.T.Path.hops with
      | _ :: h :: _ | [ h ] -> h.T.Path.link.T.Link.id
      | [] -> failwith "victim path has no hops")
  in
  let l = T.Topology.link topo bad in
  let name id = (T.Topology.device topo id).T.Device.name in
  let fault = E.Fault.degrade ~capacity_factor:factor () in
  let banner =
    match flap with
    | Some n ->
      let s = Printf.sprintf "[flapping %s-%s x%d at 1 ms]" (name l.T.Link.a) (name l.T.Link.b) n in
      E.Fabric.flap_link fab bad fault ~period:(U.Units.ms 1.0) ~toggles:n;
      s
    | None ->
      let s =
        Printf.sprintf "[degrading %s-%s to %.0f%% capacity%s]" (name l.T.Link.a)
          (name l.T.Link.b) (factor *. 100.0)
          (if silent then ", silently" else "")
      in
      E.Fabric.inject_fault fab bad fault;
      s
  in
  let t0 = Ihnet.Host.now host in
  Ihnet.Host.run_for host (U.Units.ms ms);
  let post = tenant_rate () in
  Resp.Heal_report
    {
      Resp.he_banner = banner;
      he_rate = rate;
      he_pre = pre;
      he_post = post;
      he_ttd = R.Remediation.time_to_detect rem bad ~since:t0;
      he_ttr = R.Remediation.time_to_recover rem bad;
      he_status = asp R.Remediation.pp_status rem;
      he_timeline = asp R.Remediation.pp_timeline rem;
      he_slo = asp R.Slo.pp (R.Slo.check mgr);
    }

let scenario host ~name ~ms ~protect =
  match W.Scenario.find name with
  | None -> Resp.Scenario_unknown name
  | Some make ->
    let h = make (Ihnet.Host.fabric host) in
    Ihnet.Host.run_for host (U.Units.ms ms);
    let metrics = h.W.Scenario.metrics () in
    let protect_info =
      match protect with
      | None -> None
      | Some gbps ->
        let mgr = Ihnet.Host.enable_manager host () in
        let rate = U.Units.gbps gbps in
        let intent =
          {
            (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate) with
            R.Intent.targets =
              [
                R.Intent.Pipe { src = "ext"; dst = "socket0"; rate };
                R.Intent.Pipe { src = "socket0"; dst = "ext"; rate };
              ];
          }
        in
        let note =
          match R.Manager.submit mgr intent with
          | Ok _ -> Printf.sprintf "[tenant 1 protected with a %.0f Gbps pipe]" gbps
          | Error e -> Printf.sprintf "[intent rejected: %s]" (R.Manager.error_to_string e)
        in
        Ihnet.Host.run_for host (U.Units.ms ms);
        Some
          {
            Resp.pr_note = note;
            pr_ms = ms;
            pr_metrics = h.W.Scenario.metrics ();
            pr_slo = asp R.Slo.pp (R.Slo.check mgr);
          }
    in
    h.W.Scenario.stop ();
    Resp.Scenario_report
      {
        Resp.sc_name = h.W.Scenario.name;
        sc_describe = h.W.Scenario.describe;
        sc_tenants = h.W.Scenario.tenants;
        sc_ms = ms;
        sc_metrics = metrics;
        sc_protect = protect_info;
      }

let monitor host ~ms ~period_us ~series ~load =
  apply_load host load;
  let sampler =
    Mon.Sampler.start (Ihnet.Host.fabric host)
      {
        (Mon.Sampler.default_config ()) with
        Mon.Sampler.period = U.Units.us period_us;
        fidelity = Mon.Counter.Oracle;
      }
  in
  Ihnet.Host.run_for host (U.Units.ms ms);
  let tm = Mon.Sampler.telemetry sampler in
  let filtered =
    match series with
    | None -> None
    | Some prefix ->
      Some
        (List.filter
           (fun n ->
             String.length n >= String.length prefix
             && String.sub n 0 (String.length prefix) = prefix)
           (Mon.Telemetry.series_names tm))
  in
  let csv = Mon.Telemetry.to_csv ?series:filtered tm in
  Mon.Sampler.stop sampler;
  Resp.Csv csv

let report host ~fidelity ~load =
  apply_load host load;
  let fid =
    match fidelity with
    | C.Fid_hardware -> Mon.Counter.Hardware { max_read_hz = 10_000.0 }
    | C.Fid_software -> Mon.Counter.Software
    | C.Fid_oracle -> Mon.Counter.Oracle
  in
  let counter = Mon.Counter.create (Ihnet.Host.fabric host) ~fidelity:fid in
  Resp.Health (asp Mon.Health.pp (Mon.Health.collect counter ~tenants:[ 1; 2; 8; 9 ] ()))

let plan host ~pipes ~hoses ~headroom =
  let topo = Ihnet.Host.topology host in
  let intents =
    List.mapi
      (fun i (src, dst, gbps) -> R.Intent.pipe ~tenant:(i + 1) ~src ~dst ~rate:(U.Units.gbps gbps))
      pipes
    @ List.mapi
        (fun i (endpoint, in_g, out_g) ->
          R.Intent.hose
            ~tenant:(100 + i)
            ~endpoint ~to_host:(U.Units.gbps in_g) ~from_host:(U.Units.gbps out_g))
        hoses
  in
  if intents = [] then failwith "no intents given; use --pipe/--hose";
  let fits = R.Planner.fits topo ~headroom intents in
  let scale = R.Planner.max_scale topo ~headroom intents in
  let name id = (T.Topology.device topo id).T.Device.name in
  Resp.Plan_report
    {
      intents = List.length intents;
      headroom;
      fits;
      scale;
      bottlenecks =
        (if fits then
           List.map
             (fun ((l : T.Link.t), ratio) ->
               {
                 Resp.bn_kind = T.Link.kind_label l.T.Link.kind;
                 bn_a = name l.T.Link.a;
                 bn_b = name l.T.Link.b;
                 bn_ratio = ratio;
               })
             (R.Planner.bottlenecks topo ~headroom intents)
         else []);
    }

let latency host ~link ~ms ~load =
  let fab = Ihnet.Host.fabric host in
  E.Fabric.enable_latency_sketches fab;
  apply_load host load;
  Ihnet.Host.run_for host (U.Units.ms ms);
  let flow =
    match E.Fabric.flow_latency_sketch fab with
    | Some sk when U.Sketch.count sk > 0 -> Some (asp U.Sketch.pp sk)
    | Some _ | None -> None
  in
  let links =
    if not link then []
    else begin
      let topo = Ihnet.Host.topology host in
      let name id = (T.Topology.device topo id).T.Device.name in
      List.concat_map
        (fun (l : T.Link.t) ->
          List.filter_map
            (fun dir ->
              match E.Fabric.link_latency_sketch fab l.T.Link.id dir with
              | Some sk when U.Sketch.count sk > 0 ->
                let s = U.Sketch.snapshot sk in
                Some
                  {
                    Resp.lr_id = l.T.Link.id;
                    lr_route = Printf.sprintf "%s<->%s" (name l.T.Link.a) (name l.T.Link.b);
                    lr_dir = T.Link.dir_label dir;
                    lr_count = s.U.Sketch.s_count;
                    lr_p50 = s.U.Sketch.s_p50;
                    lr_p99 = s.U.Sketch.s_p99;
                    lr_p999 = s.U.Sketch.s_p999;
                    lr_max = s.U.Sketch.s_max;
                  }
              | Some _ | None -> None)
            [ T.Link.Fwd; T.Link.Rev ])
        (T.Topology.links topo)
    end
  in
  Resp.Latency_report { flow; link_table = link; links }

let scan host ~ms ~load ~step ~snapshot =
  apply_load host load;
  Ihnet.Host.run_for host (U.Units.ms ms);
  let sum = Ihnet.Host.scan_summary host in
  let steps = ref [] and drained = ref None in
  (match step with
  | None -> ()
  | Some n ->
    let fz = Rec.Scanport.freeze (Ihnet.Host.fabric host) in
    let stepped = ref 0 and live = ref true in
    while !live && !stepped < n do
      if Rec.Scanport.step fz 1 = 1 then begin
        incr stepped;
        let s = Ihnet.Host.scan_summary host in
        steps :=
          {
            Resp.st_n = !stepped;
            st_epoch = s.Rec.Scanport.sm_epoch;
            st_digest = s.Rec.Scanport.sm_digest;
          }
          :: !steps
      end
      else live := false
    done;
    if !stepped < n then drained := Some !stepped;
    Rec.Scanport.thaw fz);
  Resp.Scan_report
    {
      epoch = sum.Rec.Scanport.sm_epoch;
      regs = sum.Rec.Scanport.sm_regs;
      digest = sum.Rec.Scanport.sm_digest;
      steps = List.rev !steps;
      drained = !drained;
      snapshot = (if snapshot then Some (Rec.Scanport.to_json (Ihnet.Host.scan host)) else None);
    }

let flow_start host ~tenant ~src ~dst ~gbps =
  let path = T.Routing.route (Ihnet.Host.topology host) src dst in
  let f =
    E.Fabric.start_flow (Ihnet.Host.fabric host) ~tenant
      ?demand:(Option.map U.Units.gbps gbps) ~path ~size:E.Flow.Unbounded ()
  in
  Resp.Flow_ok { flow = f.E.Flow.id }

let flow_stop host ~flow =
  let fab = Ihnet.Host.fabric host in
  match E.Fabric.find_flow fab flow with
  | None -> failwith (Printf.sprintf "no flow %d" flow)
  | Some f ->
    E.Fabric.stop_flow fab f;
    Resp.Ack

let submit host intent =
  match Ihnet.Host.submit_intent host intent with
  | Error e -> Resp.Err (Api_error.Mgr e)
  | Ok placements ->
    Resp.Submit_ok
      {
        tenant = intent.R.Intent.tenant;
        placements = List.map (asp R.Placement.pp) placements;
      }

let fault_inject host ~a ~b ~factor ~extra_us ~loss =
  let l = T.Topology.link_named (Ihnet.Host.topology host) a b in
  E.Fabric.inject_fault (Ihnet.Host.fabric host) l.T.Link.id
    { E.Fault.capacity_factor = factor; extra_latency = U.Units.us extra_us; loss_prob = loss };
  Resp.Ack

let fault_clear host ~a ~b =
  let l = T.Topology.link_named (Ihnet.Host.topology host) a b in
  E.Fabric.clear_fault (Ihnet.Host.fabric host) l.T.Link.id;
  Resp.Ack

let stats t host =
  let fab = Ihnet.Host.fabric host in
  let rate =
    List.fold_left (fun acc (f : E.Flow.t) -> acc +. f.E.Flow.rate) 0.0 (E.Fabric.scan_flows fab)
  in
  Resp.Stats_report
    {
      now = Ihnet.Host.now host;
      epoch = E.Fabric.scan_epoch fab;
      flows = E.Fabric.flow_count fab;
      rate;
      reallocs = E.Fabric.reallocations fab;
      clients = t.clients;
      commands = t.commands;
    }

let telemetry_sample t =
  match t.target with
  | Fleet _ -> None
  | Host host ->
    let fab = Ihnet.Host.fabric host in
    let rate =
      List.fold_left (fun acc (f : E.Flow.t) -> acc +. f.E.Flow.rate) 0.0 (E.Fabric.scan_flows fab)
    in
    Some
      (Resp.Ev_telemetry
         {
           ev_at = Ihnet.Host.now host;
           ev_epoch = E.Fabric.scan_epoch fab;
           ev_flows = E.Fabric.flow_count fab;
           ev_rate = rate;
         })

(* {1 Fleet command bodies} *)

let fleet_spawn ctl ~name ~preset =
  match Host_spec.preset_of_name preset with
  | Error e -> failwith e
  | Ok p ->
    F.Controller.spawn ctl ~preset:p name;
    Resp.Ack

let fleet_status ctl ~decisions =
  Resp.Fleet_status_report
    {
      hosts = List.length (F.Controller.hosts ctl);
      rounds = F.Controller.rounds ctl;
      digest = F.Controller.digest ctl;
      decisions = F.Controller.decisions_fingerprint ctl;
      text = asp F.Controller.pp ctl;
      decision_log =
        (if decisions then List.map F.Controller.decision_to_string (F.Controller.decisions ctl)
         else []);
    }

let fleet_fault ctl ~host ~what =
  (match what with
  | C.F_crash -> F.Controller.crash ctl host
  | C.F_restart -> F.Controller.restart ctl host
  | C.F_partition -> F.Controller.partition ctl host
  | C.F_heal -> F.Controller.heal ctl host);
  Resp.Ack

(* {1 Dispatch} *)

let mode t = match t.target with Host _ -> "host" | Fleet _ -> "fleet"

let wrong_mode t =
  Resp.Err
    (Api_error.Unsupported
       (Printf.sprintf "daemon is in %s mode; command unavailable" (mode t)))

let dispatch t cmd =
  match (cmd, t.target) with
  | C.Hello _, _ ->
    Resp.Hello_ok { version = C.version; mode = mode t; preset = t.spec.Host_spec.preset_name }
  | C.Subscribe _, Host _ -> Resp.Ack
  | C.Subscribe _, Fleet _ -> wrong_mode t
  | C.Shutdown, _ -> Resp.Bye
  | ( ( C.Check | C.Topo _ | C.Ping _ | C.Path_trace _ | C.Perf _ | C.Dump _ | C.Heartbeat _
      | C.Heal _ | C.Scenario_list | C.Scenario _ | C.Monitor _ | C.Report _ | C.Plan _
      | C.Latency _ | C.Scan _ | C.Run_for _ | C.Flow_start _ | C.Flow_stop _ | C.Submit _
      | C.Fault_inject _ | C.Fault_clear _ | C.Faults_clear_all | C.Stats ),
      Fleet _ ) ->
    wrong_mode t
  | ( ( C.Fleet_spawn _ | C.Fleet_submit _ | C.Fleet_run _ | C.Fleet_status _ | C.Fleet_fault _
      | C.Fleet_loss _ ),
      Host _ ) ->
    wrong_mode t
  | C.Check, Host h -> check h
  | C.Topo { dot }, Host h -> topo h dot
  | C.Ping { src; dst; count; load }, Host h -> ping h ~src ~dst ~count ~load
  | C.Path_trace { src; dst; load }, Host h -> path_trace h ~src ~dst ~load
  | C.Perf { src; dst; load }, Host h -> perf h ~src ~dst ~load
  | C.Dump { a; b; load }, Host h -> dump h ~a ~b ~load
  | C.Heartbeat { degrade }, Host h -> heartbeat h ~degrade
  | C.Heal { src; dst; gbps; fault; factor; silent; flap; ms }, Host h ->
    heal t h ~src ~dst ~gbps ~fault_link:fault ~factor ~silent ~flap ~ms
  | C.Scenario_list, Host _ -> Resp.Scenario_names W.Scenario.all
  | C.Scenario { name; ms; protect }, Host h -> scenario h ~name ~ms ~protect
  | C.Monitor { ms; period_us; series; load }, Host h -> monitor h ~ms ~period_us ~series ~load
  | C.Report { fidelity; load }, Host h -> report h ~fidelity ~load
  | C.Plan { pipes; hoses; headroom }, Host h -> plan h ~pipes ~hoses ~headroom
  | C.Latency { link; ms; load }, Host h -> latency h ~link ~ms ~load
  | C.Scan { ms; load; step; snapshot }, Host h -> scan h ~ms ~load ~step ~snapshot
  | C.Run_for { ms }, Host h ->
    Ihnet.Host.run_for h (U.Units.ms ms);
    Resp.Ack
  | C.Flow_start { tenant; src; dst; gbps }, Host h -> flow_start h ~tenant ~src ~dst ~gbps
  | C.Flow_stop { flow }, Host h -> flow_stop h ~flow
  | C.Submit intent, Host h -> submit h intent
  | C.Fault_inject { a; b; factor; extra_us; loss }, Host h ->
    fault_inject h ~a ~b ~factor ~extra_us ~loss
  | C.Fault_clear { a; b }, Host h -> fault_clear h ~a ~b
  | C.Faults_clear_all, Host h ->
    E.Fabric.clear_all_faults (Ihnet.Host.fabric h);
    Resp.Ack
  | C.Stats, Host h -> stats t h
  | C.Fleet_spawn { name; preset }, Fleet ctl -> fleet_spawn ctl ~name ~preset
  | C.Fleet_submit intent, Fleet ctl -> (
    (* a host's manager validates its own submits; the controller
       would queue any intent and park it as fleet-degraded *)
    match R.Intent.validate intent with
    | Error why -> Resp.Err (Api_error.Mgr (R.Mgr_error.Invalid_intent why))
    | Ok () ->
      F.Controller.submit ctl intent;
      Resp.Ack)
  | C.Fleet_run { rounds }, Fleet ctl ->
    F.Controller.run ctl ~rounds;
    Resp.Ack
  | C.Fleet_status { decisions }, Fleet ctl -> fleet_status ctl ~decisions
  | C.Fleet_fault { host; what }, Fleet ctl -> fleet_fault ctl ~host ~what
  | C.Fleet_loss { host; loss }, Fleet ctl ->
    F.Controller.set_chanfault ctl host { E.Chanfault.none with E.Chanfault.loss };
    Resp.Ack

(* {1 Validation}

   Fields that arrive from outside the process are checked before any
   effect, so a bad one is a typed [Invalid] naming the field instead
   of an assertion deep in the engine — or, for [ping], [heal] and
   [scenario], a refusal that lands after the load generator, the
   victim flow or the scenario already ran. *)

let bad_nonneg cmd field v =
  if Float.is_finite v && v >= 0.0 then None
  else Some (Printf.sprintf "%s: %s must be finite and >= 0 (got %g)" cmd field v)

(* NaN fails both comparisons, and ±inf is out of range *)
let bad_fraction cmd field v =
  if v >= 0.0 && v <= 1.0 then None
  else Some (Printf.sprintf "%s: %s must be in [0, 1] (got %g)" cmd field v)

let bad_positive cmd field v =
  if Float.is_finite v && v > 0.0 then None
  else Some (Printf.sprintf "%s: %s must be finite and > 0 (got %g)" cmd field v)

let bad_ms cmd ms = bad_nonneg cmd "ms" ms

let bad_min cmd field lo = function
  | Some n when n < lo -> Some (Printf.sprintf "%s: %s must be >= %d (got %d)" cmd field lo n)
  | _ -> None

let invalid_field = function
  | C.Heal { ms; factor; flap; _ } ->
    List.find_map Fun.id
      [ bad_fraction "heal" "factor" factor; bad_ms "heal" ms; bad_min "heal" "flap" 1 flap ]
  | C.Fault_inject { factor; extra_us; loss; _ } ->
    List.find_map Fun.id
      [
        bad_fraction "fault_inject" "factor" factor;
        bad_fraction "fault_inject" "loss" loss;
        bad_nonneg "fault_inject" "extra_us" extra_us;
      ]
  | C.Scenario { ms; protect; _ } ->
    List.find_map Fun.id
      [ bad_ms "scenario" ms; Option.bind protect (bad_positive "scenario" "protect") ]
  | C.Monitor { ms; period_us; _ } ->
    List.find_map Fun.id [ bad_ms "monitor" ms; bad_positive "monitor" "period_us" period_us ]
  | C.Latency { ms; _ } -> bad_ms "latency" ms
  | C.Scan { ms; step; _ } -> List.find_map Fun.id [ bad_ms "scan" ms; bad_min "scan" "step" 0 step ]
  | C.Run_for { ms } -> bad_ms "run_for" ms
  | C.Fleet_loss { loss; _ } -> bad_fraction "fleet_loss" "loss" loss
  | C.Ping { count; _ } when count <= 0 ->
    Some (Printf.sprintf "ping: count must be > 0 (got %d)" count)
  | C.Fleet_run { rounds } when rounds <= 0 ->
    Some (Printf.sprintf "fleet_run: rounds must be > 0 (got %d)" rounds)
  (* NaN fails the comparison too *)
  | C.Plan { headroom; _ } when not (headroom > 0.0 && headroom <= 1.0) ->
    Some (Printf.sprintf "plan: headroom must be in (0, 1] (got %g)" headroom)
  (* an unbounded demand is +inf, so only NaN and negatives are refused *)
  | C.Flow_start { gbps = Some g; _ } when not (g >= 0.0) ->
    Some (Printf.sprintf "flow_start: gbps must be >= 0 (got %g)" g)
  | _ -> None

let run t cmd =
  t.commands <- t.commands + 1;
  match invalid_field cmd with
  | Some why -> Resp.Err (Api_error.Invalid why)
  | None -> ( match Api_error.wrap (fun () -> dispatch t cmd) with Ok r -> r | Error e -> Resp.Err e)
