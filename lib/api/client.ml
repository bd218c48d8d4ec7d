type t = { fd : Unix.file_descr }

let protocol fmt = Printf.ksprintf (fun s -> raise (Api_error.Error (Api_error.Protocol s))) fmt

let read_response fd =
  match Wire.read_frame fd with
  | None -> protocol "connection closed by daemon"
  | Some j -> (
    match Response.of_json j with
    | Ok r -> r
    | Error e -> protocol "bad response: %s" e)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    protocol "%s: %s" path (Unix.error_message e));
  match
    Wire.write_frame fd (Command.to_json (Command.Hello { version = Command.version }));
    read_response fd
  with
  | Response.Hello_ok _ -> { fd }
  | Response.Err e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (Api_error.Error e)
  | _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    protocol "unexpected greeting from daemon"
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let call t cmd =
  Wire.write_frame t.fd (Command.to_json cmd);
  let rec await () =
    match read_response t.fd with
    | Response.Event _ -> await ()
    | r -> r
  in
  await ()

let next_event t =
  match Wire.read_frame t.fd with
  | None -> None
  | Some j -> (
    match Response.of_json j with
    | Ok (Response.Event ev) -> Some ev
    | Ok _ -> protocol "unexpected non-event frame on stream"
    | Error e -> protocol "bad frame: %s" e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
