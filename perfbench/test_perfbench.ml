(* The benchmark's own tests.

   Determinism: a short run of each workload, done twice on one seed
   in fresh processes, ends in the same digests (scan, fleet and
   decision digests, recorder line count), the same counters and the
   same peak heap. The runs are the benchmarked configuration, shortened
   only by [--seconds]. Non-perturbation: one of the two is a
   [--trace 1] run, which does the workload untraced and then traced on
   the same seed and fails unless both end in the same digest.

   The ihnetd-rpc gate: a reply that no op waited for fails it. *)

open Perfbench
module C = Ihnet_api.Command
module Resp = Ihnet_api.Response

let short =
  [ ("host-churn", []); ("ihnetd-rpc", [ "--check" ]); ("fleet-round", []) ]

let cleared = [ "IHNET_DOMAINS"; "IHNET_WARM"; "OCAMLRUNPARAM" ]

let env () =
  Array.of_list
    (List.filter
       (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> not (List.mem (String.sub kv 0 i) cleared)
         | None -> true)
       (Array.to_list (Unix.environment ())))

let counter = ref 0

(* runs main.exe in a fresh directory (it binds a socket and writes a
   trace there) and returns its stdout lines *)
let run_main workload ~trace extra =
  incr counter;
  let dir = Printf.sprintf "det-%d-%d" (Unix.getpid ()) !counter in
  Unix.mkdir dir 0o755;
  let exe = Filename.concat (Sys.getcwd ()) "main.exe" in
  let args =
    [ exe; "--workload"; workload; "--seed"; "7"; "--seconds"; "0.5"; "--trace"; trace ] @ extra
  in
  let out = Filename.concat dir "stdout" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () -> Unix.create_process_env exe (Array.of_list args) (env ()) Unix.stdin fd Unix.stderr)
  in
  Unix.close fd;
  let status = snd (Unix.waitpid [] pid) in
  let lines = In_channel.with_open_text out In_channel.input_lines in
  Sys.remove out;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s: main.exe failed:\n%s" workload (String.concat "\n" lines));
  lines

(* the untraced run's lines that must repeat exactly: digest, counters,
   peak heap *)
let fingerprint workload lines =
  let keep l =
    List.exists
      (fun tag -> String.starts_with ~prefix:(workload ^ " " ^ tag) l)
      [ "untraced: digest"; "untraced: counters" ]
  in
  let heap l =
    if String.starts_with ~prefix:(workload ^ " untraced: ops=") l then
      List.filter (String.starts_with ~prefix:"heap_mb=") (String.split_on_char ' ' l)
    else []
  in
  List.filter keep lines @ List.concat_map heap lines

let digest_of workload tag lines =
  let prefix = workload ^ " " ^ tag ^ ": digest " in
  match List.find_opt (String.starts_with ~prefix) lines with
  | Some l -> String.sub l (String.length prefix) (String.length l - String.length prefix)
  | None -> Alcotest.failf "%s: no %s digest in the output" workload tag

let deterministic (workload, extra) () =
  let a = run_main workload ~trace:"1" extra and b = run_main workload ~trace:"0" extra in
  let fa = fingerprint workload a in
  Alcotest.(check int) "digest, counters and heap are all reported" 3 (List.length fa);
  Alcotest.(check (list string)) "same seed, same run" fa (fingerprint workload b);
  Alcotest.(check string) "tracing observes without steering" (digest_of workload "untraced" a)
    (digest_of workload "traced" a)

let stray_reply_fails_gate () =
  let st = Ihnetd_rpc.setup ~seed:7 ~traced:false (Span.create ()) in
  Fun.protect
    ~finally:(fun () -> Ihnetd_rpc.teardown st)
    (fun () ->
      for i = 0 to 19 do
        Alcotest.(check bool) "op answered" true (Ihnetd_rpc.op st i)
      done;
      Alcotest.(check (list string)) "no reply left over" [] (fst (Ihnetd_rpc.gate ~check:false st));
      (* a command outside any op: its reply is one no op waits for *)
      Ihnetd_rpc.send st st.Ihnetd_rpc.reader [ C.Stats ];
      match fst (Ihnetd_rpc.gate ~check:false st) with
      | [ _ ] -> ()
      | gates -> Alcotest.failf "expected one gate failure, got %d" (List.length gates))

let one_reply_per_command () =
  let run_for = C.Run_for { ms = 0.05 } in
  Alcotest.(check bool) "one reply" true (Ihnetd_rpc.answered [ run_for ] [ Resp.Ack ]);
  Alcotest.(check bool) "a surplus reply" false
    (Ihnetd_rpc.answered [ run_for ] [ Resp.Ack; Resp.Ack ]);
  Alcotest.(check bool) "a missing reply" false (Ihnetd_rpc.answered [ run_for; run_for ] [ Resp.Ack ]);
  Alcotest.(check bool) "the wrong reply" false (Ihnetd_rpc.answered [ C.Stats ] [ Resp.Ack ])

let calib_allocates_nothing () =
  ignore (Calib.sample ());
  let before = Gc.minor_words () in
  ignore (Calib.sample ());
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words allocated by a probe sample" 0.0 (after -. before)

(* each op is scaled by the two probe samples around it *)
let scales_use_neighbouring_samples () =
  let r = Calib.reference_ns in
  let probe = [| 10_000; 30_000; 20_000; 40_000 |] in
  let s = Harness.scales ~every:4 ~ops:10 probe in
  Alcotest.(check (float 1e-9)) "op 0: samples 0 and 1" (r /. 20_000.0) s.(0);
  Alcotest.(check (float 1e-9)) "op 3: samples 0 and 1" (r /. 20_000.0) s.(3);
  Alcotest.(check (float 1e-9)) "op 4: samples 1 and 2" (r /. 25_000.0) s.(4);
  Alcotest.(check (float 1e-9)) "op 9, the last: samples 2 and 3" (r /. 30_000.0) s.(9)

(* self times partition the root spans' time exactly *)
let self_times_partition () =
  let t = Span.create () in
  let a = Span.register t "a" and b = Span.register t "b" in
  Span.switch_on t;
  for i = 0 to 9 do
    Span.op_begin t i;
    Span.enter t a;
    Span.enter t b;
    Span.leave t;
    Span.leave t;
    Span.enter t b;
    Span.op_end t
  done;
  let totals = Span.totals t in
  let self = List.fold_left (fun acc (_, x) -> acc + x.Span.self_ns) 0 totals in
  let root = List.assoc "op" totals in
  Alcotest.(check int) "sum of self times" root.Span.total_ns self;
  Alcotest.(check int) "calls of b" 20 (List.assoc "b" totals).Span.calls

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench determinism",
        List.map
          (fun ((w, _) as c) -> Alcotest.test_case (w ^ " repeats and is not steered") `Quick (deterministic c))
          short );
      ( "perfbench ihnetd-rpc gate",
        [
          Alcotest.test_case "a stray reply fails the gate" `Quick stray_reply_fails_gate;
          Alcotest.test_case "one reply of the right kind per command" `Quick one_reply_per_command;
        ] );
      ( "perfbench probes",
        [
          Alcotest.test_case "the machine-speed probe does not allocate" `Quick calib_allocates_nothing;
          Alcotest.test_case "each op is scaled by the probe samples around it" `Quick
            scales_use_neighbouring_samples;
          Alcotest.test_case "span self times partition op time" `Quick self_times_partition;
        ] );
    ]
