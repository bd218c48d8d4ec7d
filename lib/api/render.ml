module U = Ihnet_util
module Resp = Response

let pp_time = U.Units.pp_time
let pp_rate = U.Units.pp_rate

let print_event = function
  | Resp.Ev_telemetry { ev_at; ev_epoch; ev_flows; ev_rate } ->
    Format.printf "%10.0f epoch %-6d flows %-4d %a@." ev_at ev_epoch ev_flows pp_rate ev_rate
  | Resp.Ev_action { ev_at; ev_link; ev_stage; ev_detail } ->
    Format.printf "%10.0f link %-4d %-10s %s@." ev_at ev_link ev_stage ev_detail
  | Resp.Ev_evidence { ev_at; ev_link; ev_modality; ev_score } ->
    Format.printf "%10.0f link %-4d %-10s score %.2f@." ev_at ev_link ev_modality ev_score

let print = function
  | Resp.Ack -> print_endline "ok"
  | Resp.Err e -> Printf.eprintf "ihnetctl: %s\n" (Api_error.message e)
  | Resp.Hello_ok { version; mode; preset } ->
    Printf.printf "connected: ihnetd in %s mode, preset %s, protocol v%d\n" mode preset version
  | Resp.Event e -> print_event e
  | Resp.Topo_report { summary; config; links } ->
    print_endline summary;
    Format.printf "config: %s@." config;
    List.iter
      (fun (l : Resp.link_row) ->
        Format.printf "  link %-2d %-18s %-10s <-> %-10s %a %a@." l.Resp.l_id l.Resp.l_kind
          l.Resp.l_a l.Resp.l_b pp_rate l.Resp.l_capacity pp_time l.Resp.l_latency)
      links
  | Resp.Topo_dot dot -> print_string dot
  | Resp.Ping_report { src; dst; sent; lost; rtt } -> (
    Format.printf "ihping %s <-> %s: %d sent, %d lost@." src dst sent lost;
    match rtt with
    | Some (mn, p50, p99, mx) ->
      Format.printf "rtt min/p50/p99/max = %a / %a / %a / %a@." pp_time mn pp_time p50 pp_time
        p99 pp_time mx
    | None -> ())
  | Resp.Trace_report { src; dst; hops } ->
    Printf.printf "ihtrace %s -> %s:\n" src dst;
    List.iter
      (fun (h : Resp.trace_hop) ->
        Format.printf "  -> %-12s %-18s class %-4s base %a, now %a (util %.0f%%)@."
          h.Resp.h_device h.Resp.h_kind
          (match h.Resp.h_class with Some c -> Printf.sprintf "(%d)" c | None -> "-")
          pp_time h.Resp.h_base pp_time h.Resp.h_loaded
          (h.Resp.h_util *. 100.0))
      hops
  | Resp.Perf_report { src; dst; result; bottleneck } -> (
    match result with
    | None -> prerr_endline "perf did not complete (simulation stalled?)"
    | Some (bytes, dur, rate) -> (
      Format.printf "ihperf %s -> %s: %a over %a (%a)@." src dst U.Units.pp_bytes bytes pp_time
        dur pp_rate rate;
      match bottleneck with
      | Some (a, b, u) -> Format.printf "bottleneck: %s-%s at %.0f%%@." a b (u *. 100.0)
      | None -> ()))
  | Resp.Dump_report { a; b; found; flows } ->
    if not found then Printf.eprintf "no link between %s and %s\n" a b
    else begin
      Printf.printf "ihdump on link %s-%s:\n" a b;
      List.iter
        (fun (c : Resp.dump_row) ->
          Format.printf "  flow#%-4d tenant %-3d %-11s %-10s -> %-10s %a@." c.Resp.f_id
            c.Resp.f_tenant c.Resp.f_cls c.Resp.f_src c.Resp.f_dst pp_rate c.Resp.f_rate)
        flows
    end
  | Resp.Check_report [] -> print_endline "configuration clean: no findings"
  | Resp.Check_report findings -> List.iter (Printf.printf "finding: %s\n") findings
  | Resp.Heartbeat_report { injected; rounds; failing; first; suspects } ->
    (match injected with
    | Some (a, b) -> Printf.printf "[injecting +5 us on %s-%s]\n" a b
    | None -> ());
    Printf.printf "rounds: %d, failing pairs: %d\n" rounds failing;
    (match first with
    | Some at -> Format.printf "first detection at %a@." pp_time at
    | None -> print_endline "no anomaly detected");
    List.iter
      (fun (s : Resp.suspect_row) ->
        Printf.printf "suspect: %s-%s (score %.2f)\n" s.Resp.su_a s.Resp.su_b s.Resp.su_score)
      suspects
  | Resp.Heal_report h ->
    Printf.printf "%s\n" h.Resp.he_banner;
    Format.printf "victim: %a guaranteed, %a before fault, %a after the loop@." pp_rate
      h.Resp.he_rate pp_rate h.Resp.he_pre pp_rate h.Resp.he_post;
    (match h.Resp.he_ttd with
    | Some d -> Format.printf "time-to-detect: %a@." pp_time d
    | None -> print_endline "time-to-detect: (case not opened)");
    (match h.Resp.he_ttr with
    | Some d -> Format.printf "time-to-recover: %a@." pp_time d
    | None -> print_endline "time-to-recover: (not recovered)");
    print_string h.Resp.he_status;
    print_endline "timeline:";
    print_string h.Resp.he_timeline;
    print_string h.Resp.he_slo
  | Resp.Scenario_names names -> List.iter (fun (n, d) -> Printf.printf "%-14s %s\n" n d) names
  | Resp.Scenario_unknown name -> Printf.eprintf "unknown scenario %S; try --list\n" name
  | Resp.Scenario_report s ->
    Printf.printf "scenario %s: %s\n" s.Resp.sc_name s.Resp.sc_describe;
    List.iter (fun (id, role) -> Printf.printf "  tenant %d: %s\n" id role) s.Resp.sc_tenants;
    Printf.printf "after %.0f ms:\n" s.Resp.sc_ms;
    List.iter (fun (k, v) -> Printf.printf "  %-22s %s\n" k v) s.Resp.sc_metrics;
    (match s.Resp.sc_protect with
    | None -> ()
    | Some p ->
      Printf.printf "\n%s\n" p.Resp.pr_note;
      Printf.printf "after another %.0f ms under management:\n" p.Resp.pr_ms;
      List.iter (fun (k, v) -> Printf.printf "  %-22s %s\n" k v) p.Resp.pr_metrics;
      print_string p.Resp.pr_slo)
  | Resp.Csv csv -> print_string csv
  | Resp.Health text -> print_string text
  | Resp.Plan_report { intents; headroom; fits; scale; bottlenecks } ->
    Printf.printf "deployment: %d intent(s), headroom %.0f%%\n" intents (headroom *. 100.0);
    if fits then begin
      Printf.printf "fits: yes (uniform growth room: %.2fx)\n" scale;
      print_endline "hottest links after placement:";
      List.iter
        (fun (b : Resp.bottleneck_row) ->
          Printf.printf "  %-18s %-10s - %-10s %.0f%%\n" b.Resp.bn_kind b.Resp.bn_a b.Resp.bn_b
            (b.Resp.bn_ratio *. 100.0))
        bottlenecks
    end
    else Printf.printf "fits: NO (would fit at %.2fx of the requested rates)\n" scale
  | Resp.Latency_report { flow; link_table; links } ->
    (match flow with
    | Some s -> Format.printf "flow end-to-end latency: %s@." s
    | None ->
      print_endline
        "flow end-to-end latency: no completed flows observed (try --load or a longer --ms)");
    if link_table then begin
      Format.printf "%-4s %-24s %-4s %8s %10s %10s %10s %10s@." "link" "route" "dir" "n" "p50"
        "p99" "p999" "max";
      List.iter
        (fun (r : Resp.sketch_row) ->
          Format.printf "%-4d %-24s %-4s %8d %10s %10s %10s %10s@." r.Resp.lr_id r.Resp.lr_route
            r.Resp.lr_dir r.Resp.lr_count
            (Format.asprintf "%a" pp_time r.Resp.lr_p50)
            (Format.asprintf "%a" pp_time r.Resp.lr_p99)
            (Format.asprintf "%a" pp_time r.Resp.lr_p999)
            (Format.asprintf "%a" pp_time r.Resp.lr_max))
        links
    end
  | Resp.Scan_report { epoch; regs; digest; steps; drained; snapshot = _ } ->
    Printf.printf "scan: epoch %d, %d registers, digest 0x%016Lx\n" epoch regs digest;
    List.iter
      (fun (s : Resp.scan_step) ->
        Printf.printf "step %d: epoch %d, digest 0x%016Lx\n" s.Resp.st_n s.Resp.st_epoch
          s.Resp.st_digest)
      steps;
    (match drained with
    | Some n -> Printf.printf "no further epoch after %d epoch(s)\n" n
    | None -> ())
  | Resp.Flow_ok { flow } -> Printf.printf "started flow %d\n" flow
  | Resp.Submit_ok { tenant; placements } ->
    Printf.printf "tenant %d: %d placement(s)\n" tenant (List.length placements);
    List.iter (Printf.printf "  %s\n") placements
  | Resp.Stats_report { now; epoch; flows; rate; reallocs; clients; commands } ->
    Format.printf "now %a, epoch %d, %d flow(s), %a aggregate@." pp_time now epoch flows pp_rate
      rate;
    Printf.printf "reallocations %d, clients %d, commands %d\n" reallocs clients commands
  | Resp.Fleet_status_report { hosts; rounds; digest; decisions; text; decision_log } ->
    Printf.printf "fleet: %d host(s), %d round(s)\n" hosts rounds;
    print_string text;
    Printf.printf "fleet digest 0x%016Lx decisions 0x%016Lx\n" digest decisions;
    List.iter (Printf.printf "  %s\n") decision_log
  | Resp.Bye -> print_endline "bye"

let exit_code = function
  | Resp.Err e -> Api_error.exit_code e
  | Resp.Check_report (_ :: _) -> 1
  | Resp.Plan_report { fits = false; _ } -> 1
  | Resp.Scenario_unknown _ -> 1
  | _ -> 0
