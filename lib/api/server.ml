module E = Ihnet_engine
module R = Ihnet_manager
module Mon = Ihnet_monitor
module C = Command
module Resp = Response

type client = {
  fd : Unix.file_descr;
  rd : Wire.reader;
  mutable out : Bytes.t;  (** Queued reply bytes; those from [ooff] to [olen] are unsent. *)
  mutable ooff : int;  (** Bytes of [out] already written. *)
  mutable olen : int;  (** Bytes of [out] queued. *)
  mutable hello : bool;
  mutable streams : C.stream list;
  mutable dead : bool;
  mutable closing : bool;  (** Close once [out] drains. *)
}

type t = {
  handlers : Handlers.t;
  path : string;
  listen_fd : Unix.file_descr;
  push_every : int;
  mutable clients : client list;
  mutable stopping : bool;
  mutable closed : bool;
  mutable last_push : int;
  mutable actions_seen : int;
  mutable evidence_seen : int;
}

let clients t = List.length (List.filter (fun c -> not c.dead) t.clients)

let unsent c = c.olen - c.ooff

(* Append a frame. When it does not fit past [olen], the unsent bytes
   move to the front first: in place when they and the frame fill at
   most half of [out], else into a buffer at least twice as large. So
   every queued byte is copied a bounded number of times, however the
   socket splits the writes. *)
let enqueue c (resp : Resp.t) =
  let frame = Wire.encode (Resp.to_json resp) in
  let n = Bytes.length frame and cap = Bytes.length c.out in
  if c.olen + n > cap then begin
    let live = unsent c in
    let dst = if 2 * (live + n) <= cap then c.out else Bytes.create (max (2 * cap) (live + n)) in
    Bytes.blit c.out c.ooff dst 0 live;
    c.out <- dst;
    c.ooff <- 0;
    c.olen <- live
  end;
  Bytes.blit frame 0 c.out c.olen n;
  c.olen <- c.olen + n

let broadcast t stream ev =
  List.iter
    (fun c ->
      if (not c.dead) && (not c.closing) && c.hello && List.mem stream c.streams then
        enqueue c (Resp.Event ev))
    t.clients

(* Only a stale socket (a socket file that refuses connections) is
   removed before binding. A regular file is someone's data, and a
   socket that accepts a connection belongs to a live server, which
   would keep running but become unreachable. *)
let claim_path path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_SOCK ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () -> Unix.close probe)
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false)
    in
    if live then failwith (Printf.sprintf "%s: a server is already listening on this socket" path);
    Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s: exists and is not a socket; refusing to replace it" path)

let create ?(push_every = 64) handlers path =
  claim_path path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock listen_fd;
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 16;
  let t =
    {
      handlers;
      path;
      listen_fd;
      push_every;
      clients = [];
      stopping = false;
      closed = false;
      last_push = 0;
      actions_seen = 0;
      evidence_seen = 0;
    }
  in
  (* telemetry stream: decimated per-epoch samples off the fabric's own
     event bus, built from pure scan reads only *)
  (match Handlers.host handlers with
  | None -> ()
  | Some h ->
    E.Fabric.subscribe (Ihnet.Host.fabric h) (function
      | E.Fabric.Reallocated epoch when epoch - t.last_push >= t.push_every ->
        t.last_push <- epoch;
        (match Handlers.telemetry_sample handlers with
        | Some ev -> broadcast t C.S_telemetry ev
        | None -> ())
      | _ -> ()));
  t

(* decisions / evidence streams: deltas polled after each command *)
let poll_streams t =
  match Handlers.host t.handlers with
  | None -> ()
  | Some h ->
    (match Ihnet.Host.remediation h with
    | None -> ()
    | Some rem ->
      let n = R.Remediation.actions_count rem in
      if n > t.actions_seen then begin
        let fresh =
          List.filteri (fun i _ -> i >= t.actions_seen) (R.Remediation.actions rem)
        in
        t.actions_seen <- n;
        List.iter
          (fun (a : R.Remediation.action) ->
            broadcast t C.S_decisions
              (Resp.Ev_action
                 {
                   ev_at = a.R.Remediation.at;
                   ev_link = a.R.Remediation.action_link;
                   ev_stage = R.Remediation.stage_label a.R.Remediation.action_stage;
                   ev_detail = a.R.Remediation.detail;
                 }))
          fresh
      end);
    (match Ihnet.Host.evidence h with
    | None -> ()
    | Some ev ->
      let reports = Mon.Evidence.scan_reports ev in
      let n = List.length reports in
      if n < t.evidence_seen then t.evidence_seen <- 0;
      if n > t.evidence_seen then begin
        let fresh = List.filteri (fun i _ -> i >= t.evidence_seen) reports in
        t.evidence_seen <- n;
        List.iter
          (fun (link, m, score, at) ->
            broadcast t C.S_evidence
              (Resp.Ev_evidence
                 {
                   ev_at = at;
                   ev_link = link;
                   ev_modality = Mon.Evidence.modality_label m;
                   ev_score = score;
                 }))
          fresh
      end)

let close_client c =
  if not c.dead then begin
    c.dead <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* writes straight from [out] at the unsent offset: nothing pending is
   copied, so a reply sent in many partial writes costs its length *)
let flush_client c =
  if (not c.dead) && unsent c > 0 then begin
    let rec push () =
      if unsent c > 0 then
        match Unix.write c.fd c.out c.ooff (unsent c) with
        | 0 -> close_client c
        | n ->
          c.ooff <- c.ooff + n;
          push ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> close_client c
    in
    push ();
    if unsent c = 0 then begin
      c.ooff <- 0;
      c.olen <- 0
    end
  end;
  if c.closing && (not c.dead) && unsent c = 0 then close_client c

let protocol_error c msg =
  enqueue c (Resp.Err (Api_error.Protocol msg));
  c.closing <- true

(* one loop tick's worth of accepted commands, executed with maximal
   batchable runs folded into a single reallocation epoch *)
let execute t pending =
  Handlers.set_clients t.handlers (clients t);
  let exec_one (c, cmd) =
    let resp = Handlers.run t.handlers cmd in
    (match (cmd, resp) with
    | C.Subscribe s, Resp.Ack -> if not (List.mem s c.streams) then c.streams <- s :: c.streams
    | C.Shutdown, _ -> t.stopping <- true
    | _ -> ());
    enqueue c resp
  in
  let batch_run f =
    match Handlers.host t.handlers with
    | Some h -> E.Fabric.batch (Ihnet.Host.fabric h) f
    | None -> f ()
  in
  let rec go = function
    | [] -> ()
    | (_, cmd) :: _ as items when C.batchable cmd ->
      let rec split acc = function
        | (_, cmd') :: _ as rest when not (C.batchable cmd') -> (List.rev acc, rest)
        | item :: rest -> split (item :: acc) rest
        | [] -> (List.rev acc, [])
      in
      let run, rest = split [] items in
      if List.length run >= 2 then batch_run (fun () -> List.iter exec_one run)
      else List.iter exec_one run;
      go rest
    | item :: rest ->
      exec_one item;
      go rest
  in
  go pending;
  if pending <> [] then poll_streams t

let read_client c pending =
  let buf = Bytes.create 4096 in
  let rec drain () =
    match Unix.read c.fd buf 0 4096 with
    | 0 -> close_client c
    | n ->
      Wire.feed c.rd buf n;
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_client c
  in
  (try drain () with Api_error.Error (Api_error.Protocol m) -> protocol_error c m);
  let rec frames () =
    if c.dead || c.closing then ()
    else
      match Wire.pop c.rd with
      | exception Api_error.Error (Api_error.Protocol m) -> protocol_error c m
      | None -> ()
      | Some j -> (
        match C.of_json j with
        | Error e -> protocol_error c ("bad command: " ^ e)
        | Ok cmd ->
          (if not c.hello then
             match cmd with
             | C.Hello { version } when version = C.version ->
               c.hello <- true;
               pending := (c, cmd) :: !pending
             | C.Hello { version } ->
               protocol_error c
                 (Printf.sprintf "protocol version mismatch: client v%d, daemon v%d" version
                    C.version)
             | _ -> protocol_error c "expected hello"
           else pending := (c, cmd) :: !pending);
          frames ())
  in
  frames ()

let accept_clients t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      t.clients <-
        t.clients
        @ [
            {
              fd;
              rd = Wire.reader ();
              out = Bytes.create 256;
              ooff = 0;
              olen = 0;
              hello = false;
              streams = [];
              dead = false;
              closing = false;
            };
          ];
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let cleanup t =
  if not t.closed then begin
    t.closed <- true;
    List.iter close_client t.clients;
    t.clients <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    if Sys.file_exists t.path then try Unix.unlink t.path with Sys_error _ -> ()
  end

let step ?(timeout = 0.1) t =
  if t.closed then false
  else begin
    let live = List.filter (fun c -> not c.dead) t.clients in
    let rfds = if t.stopping then [] else t.listen_fd :: List.map (fun c -> c.fd) live in
    let wfds =
      List.filter_map (fun c -> if unsent c > 0 then Some c.fd else None) live
    in
    let readable, writable, _ =
      match Unix.select rfds wfds [] timeout with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.listen_fd readable then accept_clients t;
    let pending = ref [] in
    List.iter
      (fun c -> if List.mem c.fd readable then read_client c pending)
      live;
    execute t (List.rev !pending);
    List.iter
      (fun c ->
        if List.mem c.fd writable || unsent c > 0 || c.closing then
          flush_client c)
      live;
    t.clients <- List.filter (fun c -> not c.dead) t.clients;
    if t.stopping then begin
      (* serve the already-queued replies, then close up shop *)
      List.iter
        (fun c ->
          if unsent c > 0 then flush_client c;
          if unsent c = 0 then close_client c)
        t.clients;
      t.clients <- List.filter (fun c -> not c.dead) t.clients;
      if t.clients = [] then begin
        cleanup t;
        false
      end
      else true
    end
    else true
  end

let serve t = while step t do () done

let stop t =
  if not t.closed then begin
    List.iter flush_client t.clients;
    cleanup t
  end
