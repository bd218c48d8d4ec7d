module T = Ihnet_topology
module E = Ihnet_engine
module W = Ihnet_workload
module M = Ihnet_monitor
module R = Ihnet_manager

type preset = Two_socket | Dgx | Epyc | Minimal | Custom of T.Topology.t

type t = {
  sim : E.Sim.t;
  fabric : E.Fabric.t;
  tenants : W.Tenant.registry;
  mutable sampler : M.Sampler.t option;
  mutable heartbeat : M.Heartbeat.t option;
  mutable manager : R.Manager.t option;
  mutable remediation : R.Remediation.t option;
  mutable evidence : M.Evidence.t option;
}

let build_topology ?config = function
  | Two_socket -> T.Builder.two_socket_server ?config ()
  | Dgx -> T.Builder.dgx_like ?config ()
  | Epyc -> T.Builder.epyc_like ?config ()
  | Minimal -> T.Builder.minimal ?config ()
  | Custom topo ->
    Option.iter (T.Topology.set_config topo) config;
    topo

type wiring = {
  heartbeat : bool;
  evidence : bool;
  headroom : float;
  shim_period : Ihnet_util.Units.ns;
  sampler : M.Sampler.config option;
  latency_sketches : bool;
}

let default_wiring =
  {
    heartbeat = true;
    evidence = false;
    headroom = 0.9;
    shim_period = Ihnet_util.Units.us 50.0;
    sampler = None;
    latency_sketches = false;
  }

let apply_wiring t (wiring : wiring) =
  if wiring.latency_sketches then E.Fabric.enable_latency_sketches t.fabric

let create ?(seed = 42) ?config preset =
  let topo = build_topology ?config preset in
  (match T.Topology.validate topo with
  | Ok () -> ()
  | Error es -> invalid_arg ("Host.create: invalid topology: " ^ String.concat "; " es));
  let sim = E.Sim.create () in
  let fabric = E.Fabric.create ~seed sim topo in
  {
    sim;
    fabric;
    tenants = W.Tenant.create_registry ();
    sampler = None;
    heartbeat = None;
    manager = None;
    remediation = None;
    evidence = None;
  }

let sim t = t.sim
let fabric t = t.fabric
let topology t = E.Fabric.topology t.fabric
let tenants t = t.tenants
let now t = E.Sim.now t.sim

let run_for t duration =
  if not (duration >= 0.0) then invalid_arg "Host.run_for: duration must be >= 0";
  E.Sim.run ~until:(E.Sim.now t.sim +. duration) t.sim

let run_until_idle t = E.Sim.run t.sim
let add_tenant t ~name = W.Tenant.register t.tenants ~name ~kind:W.Tenant.Vm

let start_monitoring (t : t) ?(wiring = default_wiring) () =
  apply_wiring t wiring;
  match t.sampler with
  | Some s -> s
  | None ->
    let config =
      match wiring.sampler with Some c -> c | None -> M.Sampler.default_config ()
    in
    let s = M.Sampler.start t.fabric config in
    t.sampler <- Some s;
    s

let sampler (t : t) = t.sampler

let start_heartbeats (t : t) ?config () =
  match t.heartbeat with
  | Some h -> h
  | None ->
    let h = M.Heartbeat.start t.fabric ?config () in
    t.heartbeat <- Some h;
    h

let heartbeat (t : t) = t.heartbeat

let enable_manager t ?(wiring = default_wiring) () =
  apply_wiring t wiring;
  match t.manager with
  | Some m -> m
  | None ->
    let m = R.Manager.create t.fabric ~headroom:wiring.headroom () in
    R.Manager.start_shim m ~period:wiring.shim_period;
    t.manager <- Some m;
    m

let manager t = t.manager

(* The layering seam: Ihnet_manager must not depend on Ihnet_monitor
   (observe vs act), so the supervisor takes detectors as callbacks and
   the host — which sees both layers — plugs heartbeat localization in
   here. Operator-injected faults reach the supervisor directly through
   fabric events; this source is what catches the silent ones. *)
let enable_remediation (t : t) ?config ?(wiring = default_wiring) () =
  match t.remediation with
  | Some r -> r
  | None ->
    let m = enable_manager t ~wiring () in
    let r = R.Remediation.create ?config m in
    let ev =
      if wiring.evidence then begin
        let ev = M.Evidence.create t.fabric in
        t.evidence <- Some ev;
        Some ev
      end
      else None
    in
    (if wiring.heartbeat then begin
       let hb = start_heartbeats t () in
       R.Remediation.add_source r ~name:"heartbeat"
         (fun () ->
           let suspects = M.Heartbeat.localize hb in
           (* the gate judges coverage-discounted confidence; the raw
              coverage score still drives case opening *)
           Option.iter (fun ev -> M.Evidence.feed_heartbeat ev suspects) ev;
           List.map
             (fun (s : M.Heartbeat.suspect) -> (s.M.Heartbeat.link, s.M.Heartbeat.score))
             suspects)
     end);
    (* tail-latency SLO watch: placements carrying a p99 bound open
       cases against their worst hop when the observed sketch p99
       breaches the bound *)
    if wiring.latency_sketches then
      R.Remediation.add_source r ~name:"tail-latency" (R.Remediation.tail_latency_source m);
    Option.iter (fun ev -> R.Remediation.set_gate r (M.Evidence.gate ev)) ev;
    R.Remediation.start r;
    t.remediation <- Some r;
    r

let remediation t = t.remediation
let evidence (t : t) = t.evidence

let submit_intent t intent =
  let m = enable_manager t () in
  R.Manager.submit m intent

(* The out-of-band scan surface: everything the host wired in —
   remediation state machines, the evidence window — rides along in
   the snapshot when present. A pure read (Scanport's zero-impact
   contract), safe under any load. *)
let scan t =
  Ihnet_record.Scanport.capture ?remediation:t.remediation ?evidence:t.evidence t.fabric

let scan_summary t =
  Ihnet_record.Scanport.summary ?remediation:t.remediation ?evidence:t.evidence t.fabric

let ping t ~src ~dst = M.Diagnostics.ping_once t.fabric ~src ~dst
let trace t ~src ~dst = M.Diagnostics.trace t.fabric ~src ~dst
let bandwidth t ~src ~dst = M.Diagnostics.perf_now t.fabric ~src ~dst
let check_configuration t = M.Anomaly.check_configuration (topology t)
