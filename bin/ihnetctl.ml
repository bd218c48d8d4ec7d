(* ihnetctl — operator CLI for the simulated manageable intra-host
   network: topology inspection, ihping/ihtrace/ihperf/ihdump
   diagnostics, configuration checking and heartbeat runs.

   Every host and fleet subcommand is a thin front-end over the typed
   command plane (Ihnet_api): it builds Ihnet_api.Commands, executes
   them — against a fresh in-process host or fleet controller by
   default, or against a live ihnetd over a Unix socket with --connect
   — and renders the typed responses. The file tools (spec, record,
   replay, faults, scan --diff) stay local: they read and write files
   on the caller's machine and hold no host.

   Examples:
     dune exec bin/ihnetctl.exe -- topo --preset dgx
     dune exec bin/ihnetctl.exe -- ping nic0 dimm0.0.0 -c 20
     dune exec bin/ihnetctl.exe -- trace ext gpu0 --load
     dune exec bin/ihnetctl.exe -- perf gpu0 ssd0
     dune exec bin/ihnetctl.exe -- check --ddio off --mps 128
     dune exec bin/ihnetctl.exe -- dump nic0 pciesw0 --load
     dune exec bin/ihnetctl.exe -- heartbeat --degrade rp0.0:pciesw0
     dune exec bin/ihnetctl.exe -- stats --connect /tmp/ihnet.sock
     dune exec bin/ihnetctl.exe -- fleet --crash host1 --connect /tmp/fleet.sock *)

open Cmdliner
module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module R = Ihnet_manager
module Rec = Ihnet_record
module F = Ihnet_fleet
module Api = Ihnet_api
module C = Ihnet_api.Command

(* {1 Common options}

   The host-selection flags and [spec_term] come from Host_flags,
   shared with ihnetd. *)

open Host_flags

let connect_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Run the command against a live ihnetd listening on this Unix-domain socket instead \
           of a fresh in-process host or fleet controller.")

let src_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SRC")
let dst_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"DST")

(* [--load] puts a standard aggressor mix on the fabric so diagnostics
   have something to see. *)
let load_flag =
  Arg.(value & flag & info [ "load" ] ~doc:"Add background load (loopback + trainer) first.")

(* user errors (unknown devices, bad specs) exit with a message, not a
   backtrace; typed wire errors exit with their documented code *)
let guarded f =
  try f () with
  | Api.Api_error.Error e ->
    Printf.eprintf "ihnetctl: %s\n" (Api.Api_error.message e);
    exit (Api.Api_error.exit_code e)
  | Invalid_argument msg | Failure msg ->
    Printf.eprintf "ihnetctl: %s\n" msg;
    exit 1

(* {1 Command execution: in-process or over the wire}

   [session] hands [f] the handlers of a fresh in-process [target ()],
   or one connection to the ihnetd at [connect]. *)

let session spec connect target f =
  match connect with
  | None -> f (Api.Handlers.run (Api.Handlers.create ~spec (target ())))
  | Some path ->
    let c = Api.Client.connect path in
    Fun.protect ~finally:(fun () -> Api.Client.close c) (fun () -> f (Api.Client.call c))

let host spec () = Api.Handlers.Host (Api.Host_spec.create_host spec)

(* print a reply; a refusal ends the process with its documented code *)
let print_reply r =
  Api.Render.print r;
  let code = Api.Render.exit_code r in
  if code <> 0 then exit code

let show spec connect cmd = print_reply (session spec connect (host spec) (fun run -> run cmd))

(* {1 Subcommands} *)

let topo_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of a summary.") in
  let run spec connect dot = show spec connect (C.Topo { dot }) in
  Cmd.v (Cmd.info "topo" ~doc:"Show the host topology.")
    Term.(const run $ spec_term $ connect_flag $ dot)

let ping_cmd =
  let count = Arg.(value & opt int 10 & info [ "c"; "count" ] ~docv:"N" ~doc:"Probes to send.") in
  let run spec connect load src dst count = show spec connect (C.Ping { src; dst; count; load }) in
  Cmd.v
    (Cmd.info "ping" ~doc:"Probe RTT between two devices (ihping).")
    Term.(const run $ spec_term $ connect_flag $ load_flag $ src_arg $ dst_arg $ count)

let trace_cmd =
  let run spec connect load src dst = show spec connect (C.Path_trace { src; dst; load }) in
  Cmd.v
    (Cmd.info "trace" ~doc:"Hop-by-hop latency decomposition (ihtrace).")
    Term.(const run $ spec_term $ connect_flag $ load_flag $ src_arg $ dst_arg)

let perf_cmd =
  let run spec connect load src dst = show spec connect (C.Perf { src; dst; load }) in
  Cmd.v
    (Cmd.info "perf" ~doc:"Measure achievable bandwidth (ihperf).")
    Term.(const run $ spec_term $ connect_flag $ load_flag $ src_arg $ dst_arg)

let dump_cmd =
  let run spec connect load a b = show spec connect (C.Dump { a; b; load }) in
  Cmd.v
    (Cmd.info "dump" ~doc:"Capture the flows crossing a link (ihdump).")
    Term.(const run $ spec_term $ connect_flag $ load_flag $ src_arg $ dst_arg)

let check_cmd =
  let run spec connect = show spec connect C.Check in
  Cmd.v
    (Cmd.info "check" ~doc:"Static misconfiguration checks.")
    Term.(const run $ spec_term $ connect_flag)

let heartbeat_cmd =
  let degrade =
    Arg.(
      value
      & opt (some (pair ~sep:':' string string)) None
      & info [ "degrade" ] ~docv:"DEVA:DEVB"
          ~doc:"Silently degrade the link between two devices mid-run.")
  in
  let run spec connect degrade = show spec connect (C.Heartbeat { degrade }) in
  Cmd.v
    (Cmd.info "heartbeat" ~doc:"Run the heartbeat mesh; optionally inject a silent fault.")
    Term.(const run $ spec_term $ connect_flag $ degrade)

let heal_cmd =
  let gbps =
    Arg.(value & opt float 80.0 & info [ "gbps" ] ~docv:"GBPS" ~doc:"Victim pipe guarantee.")
  in
  let fault_link =
    Arg.(
      value
      & opt (some (pair ~sep:':' string string)) None
      & info [ "fault" ] ~docv:"DEVA:DEVB"
          ~doc:"Link to degrade (default: the second hop of the victim's placed path).")
  in
  let factor =
    Arg.(
      value
      & opt float 0.05
      & info [ "factor" ] ~docv:"F" ~doc:"Fault capacity factor (0 = link down).")
  in
  let silent =
    Arg.(
      value & flag
      & info [ "silent" ]
          ~doc:"Treat the fault as silent: ignore the fabric announcement and rely on heartbeat \
                localization to open the case.")
  in
  let flap =
    Arg.(
      value
      & opt (some int) None
      & info [ "flap" ] ~docv:"N" ~doc:"Toggle the fault N times at 1 ms period instead of \
                                        injecting it once (exercises flap damping).")
  in
  let ms =
    Arg.(value & opt float 20.0 & info [ "ms" ] ~docv:"MS" ~doc:"Milliseconds to let the loop run.")
  in
  let run spec connect src dst gbps fault factor silent flap ms =
    show spec connect (C.Heal { src; dst; gbps; fault; factor; silent; flap; ms })
  in
  Cmd.v
    (Cmd.info "heal"
       ~doc:"Inject a fault on a guaranteed pipe and watch the remediation loop recover it.")
    Term.(
      const run $ spec_term $ connect_flag $ src_arg $ dst_arg $ gbps $ fault_link $ factor
      $ silent $ flap $ ms)

let scenario_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Scenario name.")
  in
  let ms =
    Arg.(value & opt float 20.0 & info [ "ms" ] ~docv:"MS" ~doc:"Simulated milliseconds to run.")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenario names and exit.")
  in
  let protect =
    Arg.(
      value
      & opt (some float) None
      & info [ "protect" ] ~docv:"GBPS"
          ~doc:"Mid-run, give tenant 1 an end-to-end guarantee of this many Gbit/s and show \
                the before/after.")
  in
  let run spec connect list_only name ms protect =
    if list_only then show spec connect C.Scenario_list
    else show spec connect (C.Scenario { name; ms; protect })
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a canned workload scenario and print its metrics.")
    Term.(const run $ spec_term $ connect_flag $ list_flag $ name_arg $ ms $ protect)

let monitor_cmd =
  let ms =
    Arg.(value & opt float 10.0 & info [ "ms" ] ~docv:"MS" ~doc:"Simulated milliseconds to sample.")
  in
  let period_us =
    Arg.(value & opt float 100.0 & info [ "period" ] ~docv:"US" ~doc:"Sampling period, microseconds.")
  in
  let series_filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "series" ] ~docv:"PREFIX" ~doc:"Only dump series whose name starts with PREFIX.")
  in
  let run spec connect load ms period_us series =
    show spec connect (C.Monitor { ms; period_us; series; load })
  in
  Cmd.v
    (Cmd.info "monitor" ~doc:"Sample the fabric for a while and dump telemetry as CSV.")
    Term.(const run $ spec_term $ connect_flag $ load_flag $ ms $ period_us $ series_filter)

let report_cmd =
  let fidelity =
    Arg.(
      value
      & opt
          (enum
             [
               ("hardware", C.Fid_hardware); ("software", C.Fid_software); ("oracle", C.Fid_oracle);
             ])
          C.Fid_oracle
      & info [ "fidelity" ] ~docv:"LEVEL" ~doc:"Counter fidelity: hardware, software, oracle.")
  in
  let run spec connect load fidelity = show spec connect (C.Report { fidelity; load }) in
  Cmd.v
    (Cmd.info "report" ~doc:"One-shot health report (congestion, talkers, DDIO).")
    Term.(const run $ spec_term $ connect_flag $ load_flag $ fidelity)

let plan_cmd =
  let pipes =
    Arg.(
      value
      & opt_all (t3 ~sep:':' string string float) []
      & info [ "pipe" ] ~docv:"SRC:DST:GBPS" ~doc:"A pipe intent (repeatable).")
  in
  let hoses =
    Arg.(
      value
      & opt_all (t3 ~sep:':' string float float) []
      & info [ "hose" ] ~docv:"DEV:IN_GBPS:OUT_GBPS" ~doc:"A hose intent (repeatable).")
  in
  let headroom =
    Arg.(value & opt float 0.9 & info [ "headroom" ] ~docv:"F" ~doc:"Reservable fraction per link.")
  in
  let run spec connect pipes hoses headroom =
    if pipes = [] && hoses = [] then begin
      prerr_endline "no intents given; use --pipe/--hose";
      exit 1
    end;
    show spec connect (C.Plan { pipes; hoses; headroom })
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Capacity-plan a set of intents against a host.")
    Term.(const run $ spec_term $ connect_flag $ pipes $ hoses $ headroom)

let latency_cmd =
  let ms =
    Arg.(value & opt float 10.0 & info [ "ms" ] ~docv:"MS" ~doc:"Simulated milliseconds to observe.")
  in
  let link_flag =
    Arg.(
      value & flag
      & info [ "link" ] ~doc:"Also print the per-(link, direction) percentile table.")
  in
  let run spec connect load link ms = show spec connect (C.Latency { link; ms; load }) in
  Cmd.v
    (Cmd.info "latency"
       ~doc:
         "Run with the always-on latency-sketch plane enabled and print percentile summaries \
          (flow end-to-end roll-up; per-link with $(b,--link)).")
    Term.(const run $ spec_term $ connect_flag $ load_flag $ link_flag $ ms)

let scan_cmd =
  let ms =
    Arg.(
      value & opt float 10.0
      & info [ "ms" ] ~docv:"MS" ~doc:"Simulated milliseconds to run before scanning.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Save the (final) snapshot as JSON, readable back by $(b,scan --diff).")
  in
  let step =
    Arg.(
      value
      & opt (some int) None
      & info [ "step" ] ~docv:"N"
          ~doc:
            "After the run, freeze the fabric and single-step up to $(docv) reallocation \
             epochs, scanning at each boundary.")
  in
  let diff_flag =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Compare two saved snapshots ($(i,A) $(i,B)) instead of scanning a host; prints the \
             first divergent register and exits 1 if they differ.")
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"With $(b,--diff): also compare microarchitectural registers (the solver-work \
                ledger), not just the architectural contract.")
  in
  let snap_a = Arg.(value & pos 0 (some file) None & info [] ~docv:"A") in
  let snap_b = Arg.(value & pos 1 (some file) None & info [] ~docv:"B") in
  let run spec connect load ms out step diff all a b =
    if diff then begin
      let path = function
        | Some p -> p
        | None -> failwith "scan --diff needs two snapshot files: scan --diff A B"
      in
      let load_snap p =
        match Rec.Scanport.load p with Ok s -> s | Error e -> failwith e
      in
      let sa = load_snap (path a) and sb = load_snap (path b) in
      let scope = if all then `All else `Arch in
      let compared =
        List.length
          (List.filter
             (fun (r : Rec.Scanport.reg) -> all || r.Rec.Scanport.rkind = `Arch)
             sa.Rec.Scanport.s_regs)
      in
      match Rec.Scanport.diff ~scope sa sb with
      | None -> Printf.printf "scan diff: identical (%d registers compared)\n" compared
      | Some m ->
        Format.printf "scan diff: %a@." Rec.Scanport.pp_mismatch m;
        exit 1
    end
    else begin
      let r =
        session spec connect (host spec) (fun run ->
            run (C.Scan { ms; load; step; snapshot = out <> None }))
      in
      Api.Render.print r;
      (match (r, out) with
      | Api.Response.Scan_report { snapshot = Some j; _ }, Some p ->
        Rec.Scanport.save p (Rec.Scanport.of_json j);
        Printf.printf "wrote %s\n" p
      | _ -> ());
      let code = Api.Render.exit_code r in
      if code <> 0 then exit code
    end
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:
         "Out-of-band scan: dump the fabric's full register chain with zero impact; \
          $(b,--step) single-steps epochs under freeze, $(b,--diff) compares two saved \
          snapshots down to the first divergent register.")
    Term.(
      const run $ spec_term $ connect_flag $ load_flag $ ms $ out $ step $ diff_flag $ all_flag
      $ snap_a $ snap_b)

(* {1 Daemon-plane subcommands} *)

let tenant_flag =
  Arg.(value & opt int 1 & info [ "tenant"; "t" ] ~docv:"T" ~doc:"Tenant the operation is for.")

let submit_cmd =
  let pipes =
    Arg.(
      value
      & opt_all (t3 ~sep:':' string string float) []
      & info [ "pipe" ] ~docv:"SRC:DST:GBPS" ~doc:"A pipe target (repeatable).")
  in
  let hoses =
    Arg.(
      value
      & opt_all (t3 ~sep:':' string float float) []
      & info [ "hose" ] ~docv:"DEV:IN_GBPS:OUT_GBPS" ~doc:"A hose target (repeatable).")
  in
  let fleet =
    Arg.(
      value & flag
      & info [ "fleet" ] ~doc:"Submit to the fleet controller (ihnetd --fleet) instead of a host.")
  in
  let run spec connect tenant pipes hoses fleet =
    let targets =
      List.map
        (fun (src, dst, gbps) -> R.Intent.Pipe { src; dst; rate = U.Units.gbps gbps })
        pipes
      @ List.map
          (fun (endpoint, in_g, out_g) ->
            R.Intent.Hose
              { endpoint; to_host = U.Units.gbps in_g; from_host = U.Units.gbps out_g })
          hoses
    in
    if targets = [] then begin
      prerr_endline "no targets given; use --pipe/--hose";
      exit 1
    end;
    let intent =
      { (R.Intent.pipe ~tenant ~src:"_" ~dst:"_" ~rate:1.0) with R.Intent.targets }
    in
    show spec connect (if fleet then C.Fleet_submit intent else C.Submit intent)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a tenant intent for admission and placement; typed manager refusals come back \
          with their own exit codes.")
    Term.(const run $ spec_term $ connect_flag $ tenant_flag $ pipes $ hoses $ fleet)

let flow_cmd =
  let gbps =
    Arg.(
      value
      & opt (some float) None
      & info [ "gbps" ] ~docv:"GBPS" ~doc:"Demand cap (default: unbounded best-effort).")
  in
  let stop =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop" ] ~docv:"ID" ~doc:"Stop flow $(docv) instead of starting one.")
  in
  let src = Arg.(value & pos 0 (some string) None & info [] ~docv:"SRC") in
  let dst = Arg.(value & pos 1 (some string) None & info [] ~docv:"DST") in
  let run spec connect tenant gbps stop src dst =
    match stop with
    | Some flow -> show spec connect (C.Flow_stop { flow })
    | None -> (
      match (src, dst) with
      | Some src, Some dst -> show spec connect (C.Flow_start { tenant; src; dst; gbps })
      | _ -> failwith "flow needs SRC and DST (or --stop ID)")
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "Start a best-effort flow between two devices (or $(b,--stop) one) — consecutive flow \
          and fault commands arriving at a daemon in one tick share a single reallocation epoch.")
    Term.(const run $ spec_term $ connect_flag $ tenant_flag $ gbps $ stop $ src $ dst)

let fault_cmd =
  let factor =
    Arg.(
      value
      & opt float 1.0
      & info [ "factor" ] ~docv:"F" ~doc:"Capacity factor (0 = link down, 1 = unchanged).")
  in
  let extra_us =
    Arg.(
      value
      & opt float 0.0
      & info [ "latency" ] ~docv:"US" ~doc:"Extra per-crossing latency, microseconds.")
  in
  let loss =
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Loss probability.")
  in
  let clear =
    Arg.(value & flag & info [ "clear" ] ~doc:"Clear the fault on the link instead.")
  in
  let clear_all =
    Arg.(value & flag & info [ "clear-all" ] ~doc:"Clear every link fault.")
  in
  let pair =
    Arg.(value & pos 0 (some (pair ~sep:':' string string)) None & info [] ~docv:"DEVA:DEVB")
  in
  let run spec connect factor extra_us loss clear clear_all pair =
    if clear_all then show spec connect C.Faults_clear_all
    else
      match pair with
      | None -> failwith "fault needs a DEVA:DEVB link (or --clear-all)"
      | Some (a, b) ->
        if clear then show spec connect (C.Fault_clear { a; b })
        else show spec connect (C.Fault_inject { a; b; factor; extra_us; loss })
  in
  Cmd.v
    (Cmd.info "fault" ~doc:"Inject (or clear) a link fault by device pair.")
    Term.(
      const run $ spec_term $ connect_flag $ factor $ extra_us $ loss $ clear $ clear_all $ pair)

let run_cmd =
  let ms =
    Arg.(value & opt float 1.0 & info [ "ms" ] ~docv:"MS" ~doc:"Simulated milliseconds to run.")
  in
  let run spec connect ms = show spec connect (C.Run_for { ms }) in
  Cmd.v
    (Cmd.info "run" ~doc:"Advance the (daemon's) simulated clock.")
    Term.(const run $ spec_term $ connect_flag $ ms)

let stats_cmd =
  let run spec connect = show spec connect C.Stats in
  Cmd.v
    (Cmd.info "stats" ~doc:"One-line daemon status: clock, epoch, flows, clients, commands.")
    Term.(const run $ spec_term $ connect_flag)

let watch_cmd =
  let stream =
    Arg.(
      value
      & opt
          (enum
             [
               ("telemetry", C.S_telemetry);
               ("decisions", C.S_decisions);
               ("evidence", C.S_evidence);
             ])
          C.S_telemetry
      & info [ "stream" ] ~docv:"NAME" ~doc:"Stream to subscribe to: telemetry, decisions, evidence.")
  in
  let events =
    Arg.(
      value
      & opt int (-1)
      & info [ "events"; "n" ] ~docv:"N"
          ~doc:"Stop after $(docv) events (default: until the daemon closes the stream).")
  in
  let run connect stream events =
    match connect with
    | None -> failwith "watch needs --connect (there is no stream on an in-process host)"
    | Some path ->
      let c = Api.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Api.Client.close c)
        (fun () ->
          (match Api.Client.call c (C.Subscribe stream) with
          | Api.Response.Ack -> ()
          | r ->
            Api.Render.print r;
            exit (Api.Render.exit_code r));
          let rec loop n =
            if n <> 0 then
              match Api.Client.next_event c with
              | None -> ()
              | Some ev ->
                Api.Render.print (Api.Response.Event ev);
                loop (n - 1)
          in
          loop events)
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Subscribe to a daemon event stream and print frames as they arrive.")
    Term.(const run $ connect_flag $ stream $ events)

let shutdown_cmd =
  let run spec connect =
    match connect with
    | None -> failwith "shutdown needs --connect"
    | Some _ -> show spec connect C.Shutdown
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the daemon to flush, close every client and exit.")
    Term.(const run $ spec_term $ connect_flag)

(* [fleet] is one script of Fleet_* commands run through [session]. The
   first two phases are a third of the run each (at least one round),
   clipped to what is left, so exactly [rounds] rounds run. A fault line
   names the controller's round, like the status block below it: a
   daemon's controller may have run rounds before this script. *)
let fleet_cmd =
  let hosts_n =
    Arg.(value & opt int 4 & info [ "hosts"; "n" ] ~docv:"N" ~doc:"Fleet size (hosts spawned as host0..hostN-1).")
  in
  let tenants_n =
    Arg.(
      value
      & opt int 6
      & info [ "tenants"; "t" ] ~docv:"T"
          ~doc:"Tenants to place (one 2 Gb/s nic0 to socket0 pipe each).")
  in
  let rounds_n =
    Arg.(value & opt int 30 & info [ "rounds"; "r" ] ~docv:"R" ~doc:"Control rounds to run.")
  in
  let crash_h =
    Arg.(
      value
      & opt (some string) None
      & info [ "crash" ] ~docv:"HOST"
          ~doc:"Crash $(docv) a third of the way in and restart it at two thirds.")
  in
  let partition_h =
    Arg.(
      value
      & opt (some string) None
      & info [ "partition" ] ~docv:"HOST"
          ~doc:"Partition $(docv) a third of the way in and heal it at two thirds.")
  in
  let loss_p =
    Arg.(
      value
      & opt float 0.0
      & info [ "loss" ] ~docv:"P" ~doc:"Drop probability on every control channel.")
  in
  let seed_f =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"S"
          ~doc:"In-process controller seed (default 42); $(b,ihnetd --seed) seeds a daemon's.")
  in
  let fleet_preset =
    Arg.(
      value
      & opt preset_conv Ihnet.Host.Minimal
      & info [ "preset"; "p" ] ~docv:"PRESET"
          ~doc:"Per-host topology (default minimal; two-socket, dgx, epyc, minimal).")
  in
  let decisions_flag =
    Arg.(value & flag & info [ "decisions" ] ~doc:"Print the full decision log.")
  in
  let run preset hosts tenants rounds crash part loss seed decisions connect =
    List.iter
      (fun (flag, n) ->
        if n < 0 then invalid_arg (Printf.sprintf "fleet: --%s must be >= 0 (got %d)" flag n))
      [ ("hosts", hosts); ("tenants", tenants); ("rounds", rounds) ];
    if connect <> None && seed <> None then
      invalid_arg "fleet: --seed seeds only the in-process controller; use ihnetd --seed";
    let target () = Api.Handlers.Fleet (F.Controller.create ?seed ()) in
    session Api.Host_spec.default connect target (fun run ->
        let step cmd = match run cmd with Api.Response.Ack -> () | r -> print_reply r in
        let names = List.init hosts (Printf.sprintf "host%d") in
        let preset = Api.Host_spec.preset_name preset in
        List.iter (fun name -> step (C.Fleet_spawn { name; preset })) names;
        Printf.printf "fleet: %d host(s), %d tenant(s)\n" hosts tenants;
        if loss > 0.0 then List.iter (fun host -> step (C.Fleet_loss { host; loss })) names;
        for i = 1 to tenants do
          step
            (C.Fleet_submit
               (R.Intent.pipe ~tenant:i ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps 2.0)))
        done;
        let round0 =
          match run (C.Fleet_status { decisions = false }) with
          | Api.Response.Fleet_status_report { rounds; _ } -> rounds
          | r ->
            print_reply r;
            0
        in
        let ran = ref 0 in
        let phase n =
          let n = min n (rounds - !ran) in
          if n > 0 then step (C.Fleet_run { rounds = n });
          ran := !ran + n
        in
        let fault what verb = function
          | None -> ()
          | Some host ->
            step (C.Fleet_fault { host; what });
            Printf.printf "round %d: %s %s\n" (round0 + !ran) verb host
        in
        let third = max 1 (rounds / 3) in
        phase third;
        fault C.F_crash "crashed" crash;
        fault C.F_partition "partitioned" part;
        phase third;
        fault C.F_restart "restarted" crash;
        fault C.F_heal "healed" part;
        phase rounds;
        step (C.Fleet_status { decisions }))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run a fleet controller over N simulated hosts: placement on the least-loaded \
          feasible host, cross-host failover, lossy control channels ($(b,--loss)), and \
          operator-injected $(b,--crash) / $(b,--partition) faults with automatic \
          restart/heal at two thirds of the run. In-process by default; with \
          $(b,--connect), the same script drives an $(b,ihnetd --fleet).")
    Term.(
      const run $ fleet_preset $ hosts_n $ tenants_n $ rounds_n $ crash_h $ partition_h
      $ loss_p $ seed_f $ decisions_flag $ connect_flag)

(* {1 Local-only subcommands: the file tools} *)

let spec_cmd =
  let run () = print_string T.Spec.example in
  Cmd.v
    (Cmd.info "spec" ~doc:"Print an example topology spec file (for --topo-file).")
    Term.(const run $ const ())

let record_cmd =
  let source =
    Arg.(
      value
      & opt string "e17"
      & info [ "source"; "s" ] ~docv:"SCENARIO"
          ~doc:"Golden scenario to drive and record: e1, e5 or e17.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Trace file to write (default: $(i,SCENARIO).trace.jsonl).")
  in
  let regen =
    Arg.(
      value
      & opt (some string) None
      & info [ "regen-golden" ] ~docv:"DIR"
          ~doc:
            "Re-record every golden scenario and rewrite the fingerprint files in $(docv) \
             (test/golden in this repo), instead of recording one trace.")
  in
  let run source out regen =
    match regen with
    | Some dir ->
      List.iter
        (fun (path, (fp : Rec.Golden.fingerprint)) ->
          Printf.printf "%s: %d lines, trace 0x%016Lx\n" path fp.Rec.Golden.g_lines
            fp.Rec.Golden.g_trace)
        (Rec.Golden.regenerate ~dir)
    | None -> (
      match Rec.Golden.find source with
      | None -> failwith (Printf.sprintf "unknown scenario %S (e1|e5|e17)" source)
      | Some sc ->
        let path = match out with Some p -> p | None -> source ^ ".trace.jsonl" in
        Out_channel.with_open_text path (fun oc ->
            let t = Rec.Golden.record ~tee:(Rec.Recorder.channel_sink oc) sc in
            Printf.printf "%s: wrote %d lines (trace fingerprint 0x%016Lx)\n" path
              (1 + List.length t.Rec.Trace.lines)
              (Rec.Trace.fingerprint t)))
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Drive a deterministic scenario with the flight recorder attached.")
    Term.(const run $ source $ out $ regen)

let faults_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE") in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline"; "t" ]
          ~doc:"Also print every fault injection and clear chronologically, not just the final \
                active sets.")
  in
  let run file timeline =
    match Rec.Trace.load file with
    | Error e -> failwith e
    | Ok t ->
      let links : (int, float * E.Fault.link_fault) Hashtbl.t = Hashtbl.create 16 in
      let sensors : (E.Sensorfault.target, float * E.Sensorfault.sensor_fault) Hashtbl.t =
        Hashtbl.create 16
      in
      let ev at fmt = Printf.ksprintf (fun s -> if timeline then Printf.printf "%10.0f  %s\n" at s) fmt in
      List.iter
        (function
          | Rec.Trace.Op { at; op } -> (
            match op with
            | Rec.Trace.Inject_fault { link; fault } ->
              Hashtbl.replace links link (at, fault);
              ev at "link %-4d fault: %s" link (E.Fault.describe fault)
            | Rec.Trace.Clear_fault link ->
              Hashtbl.remove links link;
              ev at "link %-4d cleared" link
            | Rec.Trace.Clear_all_faults ->
              Hashtbl.reset links;
              ev at "all link faults cleared"
            | Rec.Trace.Inject_sensor_fault { starget; sf } ->
              Hashtbl.replace sensors starget (at, sf);
              ev at "%-12s sensor fault: %s" (E.Sensorfault.target_label starget)
                (E.Sensorfault.describe sf)
            | Rec.Trace.Clear_sensor_fault starget ->
              Hashtbl.remove sensors starget;
              ev at "%-12s sensor cleared" (E.Sensorfault.target_label starget)
            | _ -> ())
          | _ -> ())
        t.Rec.Trace.lines;
      if timeline then print_newline ();
      let active_links =
        List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) links [])
      in
      let active_sensors =
        List.sort compare (Hashtbl.fold (fun tg v acc -> (tg, v) :: acc) sensors [])
      in
      Printf.printf "trace %s (%s, seed %d): %d link fault(s), %d sensor fault(s) active at end\n"
        file t.Rec.Trace.header.Rec.Trace.label t.Rec.Trace.header.Rec.Trace.seed
        (List.length active_links) (List.length active_sensors);
      List.iter
        (fun (l, (at, f)) ->
          Printf.printf "  link %-4d since %10.0f ns: %s\n" l at (E.Fault.describe f))
        active_links;
      List.iter
        (fun (tg, (at, sf)) ->
          Printf.printf "  %-12s since %10.0f ns: %s\n" (E.Sensorfault.target_label tg) at
            (E.Sensorfault.describe sf))
        active_sensors
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "List the link and sensor faults a recorded trace injects — the active sets at end of \
          trace, with $(b,--timeline) the full chronology.")
    Term.(const run $ file $ timeline)

let replay_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE") in
  let perturb_at =
    Arg.(
      value
      & opt (some float) None
      & info [ "perturb-at" ] ~docv:"NS"
          ~doc:
            "Deliberately double the weight of one running flow at $(docv) (trace-relative \
             nanoseconds) during replay — the conformance check must then report a divergence.")
  in
  let run file perturb_at =
    let perturb =
      Option.map
        (fun at ->
          ( at,
            fun fab flows ->
              match (flows : E.Flow.t list) with
              | f :: _ -> E.Fabric.set_flow_limits fab f ~weight:(f.E.Flow.weight *. 2.0) ()
              | [] -> () ))
        perturb_at
    in
    match Rec.Trace.load file with
    | Error e -> failwith e
    | Ok t ->
      (* a perturbed replay is a divergence drill: pre-compute the clean
         run's scan chain so the report can name the first bad register,
         not just the first bad epoch *)
      let reference =
        match perturb with
        | None -> None
        | Some _ -> (
          match Rec.Replay.scan_reference t with Ok r -> Some r | Error _ -> None)
      in
      (match Rec.Replay.run ?perturb ?reference t with
      | Error e -> failwith e
      | Ok report ->
        Format.printf "%a@." Rec.Replay.pp_report report;
        if not (Rec.Replay.ok report) then exit 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a recorded trace on a fresh host and check digests epoch-by-epoch.")
    Term.(const run $ file $ perturb_at)

let main_cmd =
  let doc = "operator tools for the (simulated) manageable intra-host network" in
  Cmd.group (Cmd.info "ihnetctl" ~doc ~version:"1.0.0")
    [ topo_cmd; ping_cmd; trace_cmd; perf_cmd; dump_cmd; check_cmd; heal_cmd; heartbeat_cmd; monitor_cmd; latency_cmd; plan_cmd; report_cmd; scenario_cmd; spec_cmd; record_cmd; replay_cmd; scan_cmd; faults_cmd; fleet_cmd; submit_cmd; flow_cmd; fault_cmd; run_cmd; stats_cmd; watch_cmd; shutdown_cmd ]

let () = exit (guarded (fun () -> Cmd.eval ~catch:false main_cmd))
