(* Randomized fault-campaign soak for the remediation loop.

     dune exec bin/fault_campaign.exe                    # 200 ms campaign
     dune exec bin/fault_campaign.exe -- --smoke         # 20 ms, CI-sized
     dune exec bin/fault_campaign.exe -- --seed 7 --duration-ms 500
     dune exec bin/fault_campaign.exe -- --sensor-faults # lying telemetry too

   A two-socket host under flow churn while a seeded adversary injects,
   clears and flaps faults on random PCIe links and restarts the
   arbiter shim. Every millisecond the guarantee-accounting invariant
   is checked: the arbiter's floor table must hold exactly the attached
   running flows — no stale entries from completed/stopped/migrated
   flows, no attached flow without its floor. The whole campaign then
   runs a second time from the same seed and must produce an identical
   fingerprint (determinism). Exit status 0 = all checks passed.

   With --sensor-faults a second adversary corrupts the telemetry plane
   itself (stuck counters, drift, sample loss, clock skew, heartbeat
   probe corruption — at least three lying sensors held active), the
   full monitor stack runs (sampler + heartbeat mesh), and remediation
   is gated behind the evidence corroborator. The extra invariant: no
   impactful Replace/Degrade action may ever land on a link that never
   carried a real fault — lying sensors alone must not move traffic. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module R = Ihnet_manager
module Rec = Ihnet_record
module F = Ihnet_fleet

let check_floors mgr ~at =
  let arb = R.Manager.arbiter mgr in
  let floors = List.map fst (R.Arbiter.installed_floors arb) in
  let attached =
    List.concat_map
      (fun (p : R.Placement.t) ->
        List.filter_map
          (fun (f : E.Flow.t) -> if f.E.Flow.state = E.Flow.Running then Some f.E.Flow.id else None)
          p.R.Placement.attached)
      (R.Manager.placements mgr)
    |> List.sort_uniq compare
  in
  let stale = List.filter (fun id -> not (List.mem id attached)) floors in
  let missing = List.filter (fun id -> not (List.mem id floors)) attached in
  if stale <> [] || missing <> [] then
    failwith
      (Printf.sprintf "floor accounting drift at %.0f ns: %d stale floor(s), %d missing floor(s)"
         at (List.length stale) (List.length missing));
  List.iter
    (fun (p : R.Placement.t) ->
      if p.R.Placement.floor_scale <= 0.0 || p.R.Placement.floor_scale > 1.0 then
        failwith
          (Printf.sprintf "floor_scale out of range at %.0f ns: %f" at p.R.Placement.floor_scale))
    (R.Manager.placements mgr)

type stats = {
  faults : int;
  clears : int;
  flaps : int;
  shim_restarts : int;
  flows : int;
  checks : int;
  decisions : int;
  reallocations : int;
  actions : int;
  resolved : int;
  exhausted : int;
  sensor_injects : int;
  sensor_clears : int;
  sensor_active : int;
  false_migrations : int;
  floors : (int * float) list;
}

let run_campaign ?trace_buf ?(digest_every = 64) ?(sensor_mode = false) ?(preset = Ihnet.Host.Two_socket) ~seed ~duration () =
  (* the one shared host-construction path (Ihnet_api.Host_spec), same
     as ihnetctl/ihnetd *)
  let host = Ihnet_api.Host_spec.create_host (Ihnet_api.Host_spec.make ~preset ~seed ()) in
  let fab = Ihnet.Host.fabric host in
  let sim = Ihnet.Host.sim host in
  (* flight recorder first, while the host is still flowless: any
     failure below then comes with a replayable repro trace *)
  let recorder =
    Option.map
      (fun buf ->
        Rec.Recorder.attach ~digest_every ~label:"fault-campaign" ~seed
          ~sink:(Rec.Recorder.buffer_sink buf) fab)
      trace_buf
  in
  let mgr = Ihnet.Host.enable_manager host () in
  let rem =
    if sensor_mode then begin
      (* full monitor stack: the sampler so series faults bite, the
         heartbeat mesh so probe corruption bites, and the evidence
         gate so neither can trigger a migration on its own *)
      ignore (Ihnet.Host.start_monitoring host ());
      Ihnet.Host.enable_remediation host
        ~wiring:{ Ihnet.Host.default_wiring with Ihnet.Host.evidence = true }
        ()
    end
    else
      Ihnet.Host.enable_remediation host
        ~wiring:{ Ihnet.Host.default_wiring with Ihnet.Host.heartbeat = false }
        ()
  in
  Option.iter (fun r -> Rec.Recorder.observe_remediation r rem) recorder;
  let rng = U.Rng.create (seed * 7919) in
  let submit intent =
    match R.Manager.submit mgr intent with
    | Ok ps -> ps
    | Error e ->
      failwith ("fault_campaign: admission refused: " ^ Ihnet.Manager.error_to_string e)
  in
  ignore (submit (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:(U.Units.gbytes_per_s 8.0)));
  ignore (submit (R.Intent.pipe ~tenant:2 ~src:"gpu0" ~dst:"socket0" ~rate:(U.Units.gbytes_per_s 4.0)));
  ignore (submit (R.Intent.pipe ~tenant:3 ~src:"ext" ~dst:"socket1" ~rate:(U.Units.gbytes_per_s 6.0)));
  ignore (submit (R.Intent.hose ~tenant:4 ~endpoint:"ssd1" ~to_host:(U.Units.gbytes_per_s 2.0)
                    ~from_host:(U.Units.gbytes_per_s 2.0)));
  let pcie_links =
    List.filter
      (fun (l : T.Link.t) -> match l.T.Link.kind with T.Link.Pcie _ -> true | _ -> false)
      (T.Topology.links (Ihnet.Host.topology host))
    |> Array.of_list
  in
  let faults = ref 0 and clears = ref 0 and flaps = ref 0 in
  let restarts = ref 0 and flows = ref 0 and checks = ref 0 in
  let sensor_injects = ref 0 and sensor_clears = ref 0 in
  (* every link that ever carried a real fault (injected or flapped);
     the sensor-mode invariant compares migrations against this set *)
  let ever_faulted : (T.Link.id, unit) Hashtbl.t = Hashtbl.create 16 in
  (* flow churn: bounded flows on the live placements, completing on
     their own so floor pruning on self-completion is exercised *)
  E.Sim.every sim ~period:(U.Units.us 73.0) ~until:duration (fun _ ->
      let ps = Array.of_list (R.Manager.placements mgr) in
      if Array.length ps > 0 then begin
        let p = U.Rng.pick rng ps in
        let bytes = U.Rng.uniform rng 0.2e6 4e6 in
        let f =
          E.Fabric.start_flow fab ~tenant:p.R.Placement.tenant
            ~demand:(U.Rng.uniform rng 2e9 12e9) ~path:p.R.Placement.path
            ~size:(E.Flow.Bytes bytes) ()
        in
        incr flows;
        ignore (R.Manager.attach mgr f)
      end);
  (* fault adversary *)
  E.Sim.every sim ~period:(U.Units.us 531.0) ~until:duration (fun _ ->
      let link = (U.Rng.pick rng pcie_links).T.Link.id in
      match U.Rng.int rng 5 with
      | 0 | 1 ->
        incr faults;
        Hashtbl.replace ever_faulted link ();
        let factor = [| 0.05; 0.2; 0.5 |].(U.Rng.int rng 3) in
        E.Fabric.inject_fault fab link (E.Fault.degrade ~capacity_factor:factor ())
      | 2 ->
        incr clears;
        E.Fabric.clear_fault fab link
      | 3 ->
        incr flaps;
        Hashtbl.replace ever_faulted link ();
        E.Fabric.flap_link fab link
          (E.Fault.degrade ~capacity_factor:0.1 ())
          ~period:(U.Units.us 400.0) ~toggles:(2 * (1 + U.Rng.int rng 4))
      | _ ->
        incr clears;
        E.Fabric.clear_all_faults fab);
  (* sensor adversary: corrupts the telemetry plane, never the fabric.
     Seeds three liars up front and keeps at least three active so the
     evidence gate is always under attack. *)
  if sensor_mode then begin
    let devices =
      Array.of_list (List.map (fun d -> d.T.Device.id) (T.Topology.devices (Ihnet.Host.topology host)))
    in
    let series =
      Array.of_list
        (List.concat_map
           (fun (l : T.Link.t) ->
             [ Ihnet.Sampler.bytes_series l.T.Link.id T.Link.Fwd;
               Ihnet.Sampler.util_series l.T.Link.id T.Link.Fwd;
               Ihnet.Sampler.bytes_series l.T.Link.id T.Link.Rev ])
           (Array.to_list pcie_links))
    in
    let inject tgt sf =
      incr sensor_injects;
      E.Fabric.inject_sensor_fault fab tgt sf
    in
    inject (E.Sensorfault.Device (U.Rng.pick rng devices)) (E.Sensorfault.probe_corruption ~loss:0.85 ());
    inject (E.Sensorfault.Device (U.Rng.pick rng devices)) (E.Sensorfault.drifting ~factor:3.0);
    inject (E.Sensorfault.Series (U.Rng.pick rng series)) E.Sensorfault.stuck_at;
    E.Sim.every sim ~period:(U.Units.us 811.0) ~until:duration (fun _ ->
        match U.Rng.int rng 6 with
        | 0 ->
          inject (E.Sensorfault.Device (U.Rng.pick rng devices))
            (E.Sensorfault.probe_corruption ~loss:(U.Rng.uniform rng 0.5 0.95)
               ~slow:(U.Rng.uniform rng 0.0 0.5) ())
        | 1 ->
          inject (E.Sensorfault.Device (U.Rng.pick rng devices))
            (E.Sensorfault.drifting ~factor:(U.Rng.uniform rng 1.5 4.0))
        | 2 -> inject (E.Sensorfault.Series (U.Rng.pick rng series)) E.Sensorfault.stuck_at
        | 3 ->
          inject (E.Sensorfault.Series (U.Rng.pick rng series))
            (E.Sensorfault.lossy ~drop_prob:(U.Rng.uniform rng 0.1 0.5) ~dup_prob:0.1 ())
        | 4 ->
          inject (E.Sensorfault.Series (U.Rng.pick rng series))
            (E.Sensorfault.skewed ~skew:(U.Rng.uniform rng 0.0 (U.Units.us 40.0)))
        | _ ->
          (* clear one liar, but never drop below three active *)
          let active = E.Fabric.sensor_faults fab in
          if List.length active > 3 then begin
            let tgts = Array.of_list (List.map fst active) in
            incr sensor_clears;
            E.Fabric.clear_sensor_fault fab (U.Rng.pick rng tgts)
          end)
  end;
  (* shim restarts under load: the generation stamp must keep exactly
     one tick chain alive *)
  E.Sim.every sim ~period:(U.Units.ms 5.0) ~until:duration (fun _ ->
      incr restarts;
      R.Manager.stop_shim mgr;
      R.Manager.start_shim mgr ~period:(U.Units.us 50.0));
  (* invariant epoch *)
  E.Sim.every sim ~period:(U.Units.ms 1.0) ~until:duration (fun _ ->
      incr checks;
      check_floors mgr ~at:(Ihnet.Host.now host));
  Ihnet.Host.run_for host duration;
  let sensor_active = List.length (E.Fabric.sensor_faults fab) in
  if sensor_mode && sensor_active < 3 then
    failwith (Printf.sprintf "sensor adversary fell below three liars (%d active)" sensor_active);
  E.Fabric.clear_all_faults fab;
  E.Fabric.clear_all_sensor_faults fab;
  Ihnet.Host.run_for host (U.Units.ms 30.0);
  check_floors mgr ~at:(Ihnet.Host.now host);
  incr checks;
  (* sensor-mode invariant: lying telemetry must never move traffic off
     a healthy link — impactful Replace/Degrade only on ever-faulted *)
  let false_migrations =
    List.length
      (List.filter
         (fun (a : R.Remediation.action) ->
           a.R.Remediation.impact
           && (a.R.Remediation.action_stage = R.Remediation.Replace
              || a.R.Remediation.action_stage = R.Remediation.Degrade)
           && not (Hashtbl.mem ever_faulted a.R.Remediation.action_link))
         (R.Remediation.actions rem))
  in
  if sensor_mode && false_migrations > 0 then
    failwith
      (Printf.sprintf "%d migration/degradation action(s) landed on never-faulted links"
         false_migrations);
  let cases = R.Remediation.cases rem in
  let count st = List.length (List.filter (fun (c : R.Remediation.case) -> c.R.Remediation.status = st) cases) in
  R.Remediation.stop rem;
  R.Manager.stop_shim mgr;
  Option.iter Rec.Recorder.stop recorder;
  {
    faults = !faults;
    clears = !clears;
    flaps = !flaps;
    shim_restarts = !restarts;
    flows = !flows;
    checks = !checks;
    decisions = R.Manager.decisions mgr;
    reallocations = E.Fabric.reallocations fab;
    actions = R.Remediation.actions_count rem;
    resolved = count R.Remediation.Resolved;
    exhausted = count R.Remediation.Exhausted;
    sensor_injects = !sensor_injects;
    sensor_clears = !sensor_clears;
    sensor_active;
    false_migrations;
    floors = R.Arbiter.installed_floors (R.Manager.arbiter mgr);
  }

(* {1 Fleet campaign (--fleet)}

   A seeded adversary over a whole fleet: random crash/restart,
   partition/heal, lossy control channels, tenant submit/revoke — one
   op per controller round. At the end every fault is lifted and the
   controller quiesces; then three invariants are checked:

   - feasibility: every still-registered tenant is Placed (the fleet
     has ample capacity once healthy, so a lingering Fleet_degraded or
     stuck Placing/Migrating is a liveness bug);
   - no false failover: every host-down migration and every host-lost
     verdict names a host that really carried a channel or crash fault
     at some point — a never-faulted host must not lose its tenants;
   - exactly-once: each placed tenant is backed by exactly one live
     placement fleet-wide (no double-applies after healed partitions,
     no strays after reconciliation).

   The whole campaign then runs a second time from the same seed and
   must reproduce the decision fingerprint and every per-host scan
   digest bit-for-bit. *)

type fleet_stats = {
  fl_rounds : int;
  fl_crashes : int;
  fl_restarts : int;
  fl_partitions : int;
  fl_heals : int;
  fl_loss_injects : int;
  fl_loss_clears : int;
  fl_submits : int;
  fl_revokes : int;
  fl_placed : int;
  fl_decisions : int;
  fl_fp : int64;
  fl_digest : int64;
  fl_host_digests : (string * int64) list;
  fl_tenant_views : (int * F.Controller.tenant_view) list;
}

let run_fleet_campaign ~seed ~hosts ~tenants ~rounds () =
  let cfg =
    { F.Controller.default_config with F.Controller.round_len = U.Units.us 100.0 }
  in
  let t = F.Controller.create ~config:cfg ~seed () in
  for i = 0 to hosts - 1 do
    F.Controller.spawn t ~preset:Ihnet.Host.Minimal (Printf.sprintf "host%d" i)
  done;
  let labels = Array.of_list (F.Controller.hosts t) in
  let adv = U.Rng.create (seed * 104729) in
  (* every host that ever carried a real fault (crash, partition, lossy
     channel); the false-failover invariant compares migrations against
     this set *)
  let ever_faulted : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let partitioned : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let lossy : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let crashes = ref 0 and restarts = ref 0 in
  let partitions = ref 0 and heals = ref 0 in
  let loss_injects = ref 0 and loss_clears = ref 0 in
  let submits = ref 0 and revokes = ref 0 in
  let next_tenant = ref 0 in
  let submit () =
    incr next_tenant;
    incr submits;
    F.Controller.submit t
      (R.Intent.pipe ~tenant:!next_tenant ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps 2.0))
  in
  for _ = 1 to tenants do
    submit ()
  done;
  let pick_host () = labels.(U.Rng.int adv (Array.length labels)) in
  for _ = 1 to rounds do
    (match U.Rng.int adv 10 with
    | 0 ->
      let h = pick_host () in
      if F.Controller.host_view t h <> Some F.Controller.Crashed then begin
        incr crashes;
        Hashtbl.replace ever_faulted h ();
        F.Controller.crash t h
      end
    | 1 ->
      let h = pick_host () in
      if F.Controller.host_view t h = Some F.Controller.Crashed then begin
        incr restarts;
        F.Controller.restart t h
      end
    | 2 ->
      let h = pick_host () in
      if F.Controller.host_view t h <> Some F.Controller.Crashed && not (Hashtbl.mem partitioned h)
      then begin
        incr partitions;
        Hashtbl.replace ever_faulted h ();
        Hashtbl.replace partitioned h ();
        F.Controller.partition t h
      end
    | 3 ->
      let h = pick_host () in
      if Hashtbl.mem partitioned h then begin
        incr heals;
        Hashtbl.remove partitioned h;
        F.Controller.heal t h
      end
    | 4 ->
      let h = pick_host () in
      incr loss_injects;
      Hashtbl.replace ever_faulted h ();
      Hashtbl.replace lossy h ();
      F.Controller.set_chanfault t h
        (E.Chanfault.lossy ~loss:(U.Rng.uniform adv 0.1 0.4) ~dup_prob:0.1 ())
    | 5 ->
      let h = pick_host () in
      if Hashtbl.mem lossy h then begin
        incr loss_clears;
        Hashtbl.remove lossy h;
        F.Controller.set_chanfault t h E.Chanfault.none
      end
    | 6 -> submit ()
    | 7 ->
      if !next_tenant > 0 then begin
        let id = 1 + U.Rng.int adv !next_tenant in
        if List.mem id (F.Controller.tenants t) then begin
          incr revokes;
          F.Controller.revoke t ~tenant:id
        end
      end
    | _ -> ());
    F.Controller.round t
  done;
  (* lift every fault (host index order — determinism), then quiesce:
     holddowns expire, degraded tenants restore, strays reconcile *)
  Array.iter
    (fun h ->
      if F.Controller.host_view t h = Some F.Controller.Crashed then F.Controller.restart t h;
      if Hashtbl.mem partitioned h then F.Controller.heal t h;
      F.Controller.set_chanfault t h E.Chanfault.none)
    labels;
  F.Controller.run t ~rounds:80;
  (* invariant: feasibility — every surviving tenant is Placed *)
  let views =
    List.map (fun id -> (id, Option.get (F.Controller.tenant_view t id))) (F.Controller.tenants t)
  in
  List.iter
    (fun (id, v) ->
      match v with
      | F.Controller.Placed _ -> ()
      | F.Controller.Unplaced -> failwith (Printf.sprintf "tenant %d left unplaced after quiesce" id)
      | F.Controller.Placing h ->
        failwith (Printf.sprintf "tenant %d stuck placing on %s after quiesce" id h)
      | F.Controller.Migrating { from_; to_ } ->
        failwith (Printf.sprintf "tenant %d stuck migrating %s -> %s after quiesce" id from_ to_)
      | F.Controller.Fleet_degraded ->
        failwith
          (Printf.sprintf "tenant %d still fleet-degraded after quiesce (placement is feasible)" id))
    views;
  (* invariant: no false failover — host-down migrations and host-lost
     verdicts only ever name hosts that really carried a fault *)
  List.iter
    (fun (d : F.Controller.decision) ->
      match d with
      | F.Controller.D_migrated { tenant; from_; reason = F.Controller.Host_down; _ }
        when not (Hashtbl.mem ever_faulted from_) ->
        failwith
          (Printf.sprintf "tenant %d migrated off never-faulted host %s (host-down)" tenant from_)
      | F.Controller.D_host_lost { host } when not (Hashtbl.mem ever_faulted host) ->
        failwith (Printf.sprintf "never-faulted host %s declared lost" host)
      | _ -> ())
    (F.Controller.decisions t);
  (* invariant: exactly-once — each placed tenant is backed by exactly
     one live placement fleet-wide *)
  let backing : (int, int) Hashtbl.t = Hashtbl.create 32 in
  Array.iter
    (fun l ->
      match F.Controller.host t l with
      | None -> ()
      | Some host -> (
        match Ihnet.Host.manager host with
        | None -> ()
        | Some mgr ->
          List.iter
            (fun (p : R.Placement.t) ->
              let tn = p.R.Placement.tenant in
              Hashtbl.replace backing tn (1 + Option.value ~default:0 (Hashtbl.find_opt backing tn)))
            (R.Manager.placements mgr)))
    labels;
  List.iter
    (fun (id, v) ->
      match v with
      | F.Controller.Placed h ->
        let n = Option.value ~default:0 (Hashtbl.find_opt backing id) in
        if n <> 1 then
          failwith
            (Printf.sprintf "tenant %d placed on %s is backed by %d live placement(s)" id h n)
      | _ -> ())
    views;
  let digest = F.Controller.digest t in
  {
    fl_rounds = F.Controller.rounds t;
    fl_crashes = !crashes;
    fl_restarts = !restarts;
    fl_partitions = !partitions;
    fl_heals = !heals;
    fl_loss_injects = !loss_injects;
    fl_loss_clears = !loss_clears;
    fl_submits = !submits;
    fl_revokes = !revokes;
    fl_placed = List.length views;
    fl_decisions = List.length (F.Controller.decisions t);
    fl_fp = F.Controller.decisions_fingerprint t;
    fl_digest = digest;
    fl_host_digests = F.Controller.host_digests t;
    fl_tenant_views = views;
  }

let fleet_main ~seed ~hosts ~tenants ~rounds () =
  let guarded label =
    try run_fleet_campaign ~seed ~hosts ~tenants ~rounds () with
    | Failure msg ->
      Printf.eprintf "FLEET CAMPAIGN FAILURE (%s): %s\n" label msg;
      exit 1
    | e ->
      Printf.eprintf "FLEET CAMPAIGN FAILURE (%s): %s\n" label (Printexc.to_string e);
      exit 1
  in
  let s1 = guarded "first run" in
  let s2 = guarded "second run" in
  Printf.printf
    "fleet campaign: %d host(s), %d round(s), seed %d\n\
    \  adversary: %d crash(es), %d restart(s), %d partition(s), %d heal(s), %d lossy channel(s) \
     (%d cleared), %d submit(s), %d revoke(s)\n\
    \  controller: %d decision(s), %d tenant(s) placed after quiesce\n\
    \  invariants: all tenants placed, no false failover, exactly one backing placement each\n"
    hosts s1.fl_rounds seed s1.fl_crashes s1.fl_restarts s1.fl_partitions s1.fl_heals
    s1.fl_loss_injects s1.fl_loss_clears s1.fl_submits s1.fl_revokes s1.fl_decisions s1.fl_placed;
  if s1 <> s2 then begin
    Printf.eprintf
      "DETERMINISM FAILURE: identical seeds diverged (run1: %d decisions, fp 0x%016Lx, digest \
       0x%016Lx; run2: %d decisions, fp 0x%016Lx, digest 0x%016Lx)\n"
      s1.fl_decisions s1.fl_fp s1.fl_digest s2.fl_decisions s2.fl_fp s2.fl_digest;
    exit 1
  end;
  Printf.printf "  determinism: second run from seed %d produced an identical fingerprint\n" seed

let dump_trace path buf =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))

let () =
  let seed = ref 42 and duration_ms = ref 200.0 and record_file = ref None in
  let digest_every = ref 64 and sensor_mode = ref false in
  let fleet_mode = ref false and smoke = ref false in
  let fleet_hosts = ref None and fleet_tenants = ref None and fleet_rounds = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      duration_ms := 20.0;
      parse rest
    | "--fleet" :: rest ->
      fleet_mode := true;
      parse rest
    | "--sensor-faults" :: rest ->
      sensor_mode := true;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--duration-ms" :: v :: rest ->
      duration_ms := float_of_string v;
      parse rest
    | "--hosts" :: v :: rest ->
      fleet_hosts := Some (int_of_string v);
      parse rest
    | "--tenants" :: v :: rest ->
      fleet_tenants := Some (int_of_string v);
      parse rest
    | "--rounds" :: v :: rest ->
      fleet_rounds := Some (int_of_string v);
      parse rest
    | "--record" :: v :: rest ->
      record_file := Some v;
      parse rest
    | "--digest-every" :: v :: rest ->
      digest_every := int_of_string v;
      parse rest
    | a :: _ -> failwith ("fault_campaign: unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !fleet_mode then begin
    let dfl d s = if !smoke then s else d in
    fleet_main ~seed:!seed
      ~hosts:(Option.value ~default:(dfl 8 4) !fleet_hosts)
      ~tenants:(Option.value ~default:(dfl 14 6) !fleet_tenants)
      ~rounds:(Option.value ~default:(dfl 240 60) !fleet_rounds)
      ();
    exit 0
  end;
  let duration = U.Units.ms !duration_ms in
  let buf1 = Buffer.create 65536 and buf2 = Buffer.create 65536 in
  let guarded buf label =
    try
      run_campaign ~trace_buf:buf ~digest_every:!digest_every ~sensor_mode:!sensor_mode ~seed:!seed
        ~duration ()
    with e ->
      let repro = "fault_campaign_repro.jsonl" in
      dump_trace repro buf;
      Printf.eprintf "CAMPAIGN FAILURE (%s): %s\n  repro trace written to %s\n" label
        (Printexc.to_string e) repro;
      exit 1
  in
  let s1 = guarded buf1 "first run" in
  let s2 = guarded buf2 "second run" in
  Printf.printf
    "fault campaign: %.0f ms, seed %d%s\n\
    \  adversary: %d fault(s), %d clear(s), %d flap(s), %d shim restart(s), %d churn flow(s)\n\
    \  remediation: %d action(s), %d case(s) resolved, %d exhausted\n\
    \  arbiter: %d decision(s), %d reallocation(s)\n\
    \  invariant: floor accounting consistent at all %d epoch check(s)\n"
    !duration_ms !seed
    (if !sensor_mode then " (sensor faults on)" else "")
    s1.faults s1.clears s1.flaps s1.shim_restarts s1.flows s1.actions s1.resolved s1.exhausted
    s1.decisions s1.reallocations s1.checks;
  if !sensor_mode then
    Printf.printf
      "  sensor adversary: %d liar(s) injected, %d cleared, %d still active at teardown\n\
      \  evidence gate: %d migration/degradation action(s) on never-faulted links\n"
      s1.sensor_injects s1.sensor_clears s1.sensor_active s1.false_migrations;
  if s1 <> s2 then begin
    dump_trace "fault_campaign_repro.jsonl" buf1;
    dump_trace "fault_campaign_repro2.jsonl" buf2;
    Printf.eprintf
      "DETERMINISM FAILURE: identical seeds diverged (run1: %d decisions, %d actions; run2: %d \
       decisions, %d actions)\n\
      \  repro traces written to fault_campaign_repro.jsonl / fault_campaign_repro2.jsonl\n"
      s1.decisions s1.actions s2.decisions s2.actions;
    exit 1
  end;
  Printf.printf "  determinism: second run from seed %d produced an identical fingerprint\n" !seed;
  match !record_file with
  | Some path ->
    dump_trace path buf1;
    Printf.printf "  flight recorder: trace written to %s\n" path
  | None -> ()
