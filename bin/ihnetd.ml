(* ihnetd — the long-running daemon half of the control plane: one
   live simulated host (or fleet controller), served to N concurrent
   ihnetctl clients over a Unix-domain socket, with the flight
   recorder capturing the whole session so it replays bit-for-bit.

   Examples:
     dune exec bin/ihnetd.exe -- --socket /tmp/ihnet.sock
     dune exec bin/ihnetd.exe -- --preset dgx --trace session.trace.jsonl
     dune exec bin/ihnetd.exe -- --fleet --socket /tmp/fleet.sock
   then, from another terminal:
     dune exec bin/ihnetctl.exe -- topo --connect /tmp/ihnet.sock
     dune exec bin/ihnetctl.exe -- shutdown --connect /tmp/ihnet.sock *)

open Cmdliner
module Rec = Ihnet_record
module F = Ihnet_fleet
module Api = Ihnet_api

let seed_flag =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"S" ~doc:"Host RNG seed (default 42).")

let socket_flag =
  Arg.(
    value
    & opt string "ihnetd.sock"
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let trace_flag =
  Arg.(
    value
    & opt string "ihnetd.trace.jsonl"
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Flight-recorder trace of the whole session, replayable with $(b,ihnetctl replay) \
           (host mode only; a $(b,--topo-file) session is not replayable, because the trace \
           header cannot name a preset).")

let no_trace_flag =
  Arg.(value & flag & info [ "no-trace" ] ~doc:"Serve without the flight recorder attached.")

let fleet_flag =
  Arg.(
    value & flag
    & info [ "fleet" ]
        ~doc:
          "Serve a fleet controller instead of a single host: clients drive it with the \
           fleet-spawn/fleet-run/fleet-status commands.")

let push_every_flag =
  Arg.(
    value
    & opt int 64
    & info [ "push-every" ] ~docv:"N"
        ~doc:"Telemetry stream decimation: push one sample every $(docv) reallocation epochs.")

let run spec seed socket trace no_trace fleet push_every =
  let spec = { spec with Api.Host_spec.seed } in
  (* refuse a taken socket path before the trace file is truncated *)
  Api.Server.claim_path socket;
  let serve target recorder =
    let handlers = Api.Handlers.create ?recorder ~spec target in
    let srv = Api.Server.create ~push_every handlers socket in
    Printf.eprintf "ihnetd: %s mode, preset %s, listening on %s\n%!"
      (match target with Api.Handlers.Host _ -> "host" | Api.Handlers.Fleet _ -> "fleet")
      spec.Api.Host_spec.preset_name socket;
    Api.Server.serve srv
  in
  if fleet then serve (Api.Handlers.Fleet (F.Controller.create ?seed ())) None
  else begin
    let host = Api.Host_spec.create_host spec in
    if no_trace then serve (Api.Handlers.Host host) None
    else
      Out_channel.with_open_text trace (fun oc ->
          (* the recorder defaults [preset] to the topology's own name,
             which is what Replay.run rebuilds from *)
          let recorder =
            Rec.Recorder.attach ~label:"ihnetd" ?seed:spec.Api.Host_spec.seed
              ~sink:(Rec.Recorder.channel_sink oc)
              (Ihnet.Host.fabric host)
          in
          serve (Api.Handlers.Host host) (Some recorder);
          Rec.Recorder.stop recorder;
          Printf.eprintf "ihnetd: wrote %d trace line(s) to %s\n%!" (Rec.Recorder.lines recorder)
            trace)
  end

let main_cmd =
  let doc = "serve one simulated host (or fleet) to concurrent ihnetctl clients" in
  Cmd.v
    (Cmd.info "ihnetd" ~doc ~version:"1.0.0")
    Term.(
      const run $ Host_flags.spec_term $ seed_flag $ socket_flag $ trace_flag $ no_trace_flag
      $ fleet_flag $ push_every_flag)

(* user errors (bad specs, busy sockets) exit with a message, not a
   backtrace *)
let guarded f =
  try f () with
  | Api.Api_error.Error e ->
    Printf.eprintf "ihnetd: %s\n" (Api.Api_error.message e);
    exit (Api.Api_error.exit_code e)
  | Invalid_argument msg | Failure msg ->
    Printf.eprintf "ihnetd: %s\n" msg;
    exit 1
  | Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "ihnetd: %s%s: %s\n" fn
      (if arg = "" then "" else " " ^ arg)
      (Unix.error_message e);
    exit 1

let () = exit (guarded (fun () -> Cmd.eval ~catch:false main_cmd))
