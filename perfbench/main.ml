(* perfbench: one run of one workload.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--check] [--spans FILE]
          main.exe --workload NAME --seed N --time-setup

   The op count is [rate * seconds] with a fixed per-workload rate, so
   a run does the same work whatever the machine's speed; every other
   size is a constant of the workload. Throughput and latencies are
   normalised to a machine of reference speed by the probe sampled
   between ops (see harness.ml and calib.ml); the raw wall-clock
   figures are printed beside them. With [--trace 0] the last stdout
   line is a JSON object carrying every end-to-end metric. With
   [--trace 1] the run is done twice on the same seed, untraced then
   traced, and the JSON carries every per-layer metric; the two runs
   must end in the same digest. A failed correctness gate exits 1.
   Normally run through run.py, which builds this program and clears
   the environment (see README.md).

   [--time-setup] builds the workload's state once, prints the set-up
   time in ns and exits; a run starts itself that way to time its
   repeat set-ups in fresh processes. *)

open Perfbench

type packed = W : 'st Harness.workload -> packed

let workloads =
  [
    ("host-churn", W Host_churn.workload);
    ("ihnetd-rpc", W Ihnetd_rpc.workload);
    ("fleet-round", W Fleet_round.workload);
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("norm_ops_per_s", "ops/s");
    ("norm_op_p50_us", "us");
    ("norm_op_p99_us", "us");
    ("heap_mb", "MiB");
    ("ok_ratio", "ratio");
  ]

let per_layer =
  [
    ("fabric.stop_flow_us", "us");
    ("fabric.start_flow_us", "us");
    ("fabric.reallocs_per_op", "count");
    ("fabric.memo_hit_ratio", "ratio");
    ("fairshare.full_rebuilds_per_op", "count");
    ("fairshare.incremental_per_op", "count");
    ("fairshare.unchanged_per_op", "count");
    ("fabric.completions_per_op", "count");
    ("host.run_for_us", "us");
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("server.step_us", "us");
    ("server.steps_per_op", "count");
    ("server.cmds_per_epoch", "count");
    ("recorder.sink_us", "us");
    ("recorder.lines_per_op", "count");
    ("recorder.bytes_per_op", "B");
    ("stream.events_per_op", "count");
    ("stream.bytes_per_op", "B");
    ("handlers.cmds_per_op", "count");
    ("controller.round_us", "us");
    ("controller.submit_us", "us");
    ("controller.revoke_us", "us");
    ("controller.decisions_per_op", "count");
    ("fleet.host_reallocs_per_op", "count");
    ("gc.minor_kw_per_op", "kw");
    ("gc.promoted_kw_per_op", "kw");
    ("gc.major_per_op", "count");
    ("gc.pause_us_per_op", "us");
    ("env.calib_us", "us");
    ("trace.coverage", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let us_of_ns ns = float_of_int ns /. 1e3

let heap_mb (r : Harness.result) = float_of_int (r.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let raw (r : Harness.result) = Harness.timing (Array.map float_of_int r.op_ns)
let norm (r : Harness.result) = Harness.timing (Harness.normalised r)

let e2e_metrics (r : Harness.result) =
  let n = norm r in
  [
    ("setup_s", float_of_int (Harness.median_int r.setup_ns) /. 1e9);
    ("norm_ops_per_s", n.ops_per_s);
    ("norm_op_p50_us", n.p50_ns /. 1e3);
    ("norm_op_p99_us", n.p99_ns /. 1e3);
    ("heap_mb", heap_mb r);
    ("ok_ratio", float_of_int (r.attempted - r.failed) /. float_of_int r.attempted);
  ]

let layer_metrics ~(untraced : Harness.result) (r : Harness.result) =
  let ops = float_of_int (Array.length r.op_ns) in
  (* each layer span [x] gives [x_us], its self time per call *)
  let per_call =
    List.filter_map
      (fun (span, (t : Span.total)) ->
        if span = "op" || t.calls = 0 then None
        else Some (span ^ "_us", us_of_ns t.self_ns /. float_of_int t.calls))
      (Span.totals ~weight:(fun op -> r.scale.(op)) r.spans)
  in
  let measured =
    per_call
    @ r.layer
    @ [
        ("server.steps_per_op", float_of_int (Span.total_of r.spans "server.step").calls /. ops);
        ("gc.minor_kw_per_op", r.gc.Harness.minor_words /. 1e3 /. ops);
        ("gc.promoted_kw_per_op", r.gc.Harness.promoted_words /. 1e3 /. ops);
        ("gc.major_per_op", float_of_int r.gc.Harness.major_collections /. ops);
        ("gc.pause_us_per_op", us_of_ns r.pause_ns /. ops);
        ("env.calib_us", us_of_ns (Harness.median_int (Array.to_list r.probe_ns)));
        ("trace.coverage", Span.coverage r.spans);
        ("trace.overhead_ratio", (norm untraced).ops_per_s /. (norm r).ops_per_s);
      ]
  in
  (* a layer this workload never calls reads 0 *)
  List.map (fun (name, _) -> (name, Option.value (List.assoc_opt name measured) ~default:0.0)) per_layer

let json_result ~correct ~attempted ~failed metrics units =
  let metric (name, v) =
    if not (Float.is_finite v) then die "metric %s is not finite" name;
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v (List.assoc name units)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

let report name (r : Harness.result) ~traced =
  let label = if traced then "traced" else "untraced" in
  let probe = Array.copy r.probe_ns in
  Array.sort compare probe;
  Printf.printf "%s %s: ops=%d wall_s=%.3f failed=%d probe_us=%.1f/%.1f/%.1f heap_mb=%.4f\n" name
    label (Array.length r.op_ns)
    (float_of_int (Array.fold_left ( + ) 0 r.op_ns) /. 1e9)
    r.failed
    (us_of_ns probe.(0))
    (us_of_ns (Harness.percentile probe 0.5))
    (us_of_ns probe.(Array.length probe - 1))
    (heap_mb r);
  let line kind (t : Harness.timing) =
    Printf.printf "%s %s: %s ops_per_s=%.4g p50_us=%.1f p99_us=%.1f\n" name label kind t.ops_per_s
      (t.p50_ns /. 1e3) (t.p99_ns /. 1e3)
  in
  line "raw" (raw r);
  line "norm" (norm r);
  Printf.printf "%s %s: setups_ms=[%s]\n" name label
    (String.concat " " (List.map (fun ns -> Printf.sprintf "%.2f" (float_of_int ns /. 1e6)) r.setup_ns));
  Printf.printf "%s %s: digest %s\n" name label r.digest;
  Printf.printf "%s %s: counters %s\n" name label
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.6g" k v) r.layer));
  if r.lost_events > 0 then
    Printf.printf "%s %s: %d runtime event(s) lost; gc.pause_us_per_op is a lower bound\n" name
      label r.lost_events;
  List.iter (fun g -> Printf.printf "%s %s: GATE FAILED: %s\n" name label g) r.gate

let child_out = Bytes.create 64

(* the decimal number and newline the child printed, or -1 *)
let parse_ns n =
  let rec go i acc =
    if i = n - 1 then if Bytes.get child_out i = '\n' then acc else -1
    else
      match Bytes.get child_out i with
      | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - Char.code '0')
      | _ -> -1
  in
  if n < 2 then -1 else go 0 0

(* Times one set-up in a fresh process of this program, and waits for
   it. Reading the reply allocates the same whatever the time: the
   measured process's allocation, and so its peak heap, must not
   depend on a timing. *)
let repeat_setup workload seed () =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--time-setup" |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let rec fill n =
    match Unix.read rd child_out n (Bytes.length child_out - n) with
    | 0 -> n
    | k -> fill (n + k)
  in
  let n = fill 0 in
  Unix.close rd;
  match (snd (Unix.waitpid [] pid), parse_ns n) with
  | Unix.WEXITED 0, ns when ns >= 0 -> ns
  | _ -> die "a repeat set-up failed: %S" (Bytes.sub_string child_out 0 n)

(* each span's self time as a share of op time *)
let print_split name spans =
  let totals = Span.totals spans in
  let op = (List.assoc "op" totals).Span.total_ns in
  Printf.printf "%s traced: split %s\n" name
    (String.concat " "
       (List.filter_map
          (fun (span, (t : Span.total)) ->
            if t.calls = 0 || op = 0 then None
            else
              Some
                (Printf.sprintf "%s=%.1f%%" span
                   (100.0 *. float_of_int t.self_ns /. float_of_int op)))
          totals))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let check = ref false and spans_file = ref "" and time_setup = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME host-churn, ihnetd-rpc or fleet-round");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal length of the timed region");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--check", Arg.Set check, " also replay the recorded daemon session (ihnetd-rpc)");
      ("--spans", Arg.Set_string spans_file, "FILE write the traced run's spans here");
      ("--time-setup", Arg.Set time_setup, " time one set-up, print it in ns and exit");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "main.exe --workload NAME [options]";
  List.iter
    (fun var ->
      match Sys.getenv_opt var with
      | Some v when v <> "" -> die "%s is set; measure with it cleared (run.py does)" var
      | _ -> ())
    [ "IHNET_DOMAINS"; "IHNET_WARM"; "OCAMLRUNPARAM" ];
  let (W w) =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !time_setup then begin
    print_int (Harness.time_setup w ~seed:!seed);
    print_newline ();
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if not (!seconds > 0.0) then die "--seconds must be positive";
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s\n%!" !workload !seed
    !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let run ~traced =
    Harness.run w ~seed:!seed ~seconds:!seconds ~traced ~check:!check
      ~repeat_setup:(repeat_setup !workload !seed)
  in
  let untraced = run ~traced:false in
  report !workload untraced ~traced:false;
  let gates, attempted, failed, metrics, units =
    if !trace = 0 then
      (untraced.gate, untraced.attempted, untraced.failed, e2e_metrics untraced, end_to_end)
    else begin
      let traced = run ~traced:true in
      report !workload traced ~traced:true;
      if !spans_file <> "" then Span.write traced.spans !spans_file;
      print_split !workload traced.spans;
      let steered =
        if traced.digest = untraced.digest then []
        else [ Printf.sprintf "tracing changed the final state: %s" traced.digest ]
      in
      ( untraced.gate @ traced.gate @ steered,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        layer_metrics ~untraced traced,
        per_layer )
    end
  in
  List.iter (fun (k, v) -> Printf.printf "  %-32s %.6g\n" k v) metrics;
  let correct = gates = [] && failed = 0 in
  print_endline (json_result ~correct ~attempted ~failed metrics units);
  exit (if correct then 0 else 1)
