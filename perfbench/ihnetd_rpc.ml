(* ihnetd-rpc: a daemon command round trip.

   The daemon's server loop runs in this process over [Handlers.create
   ~recorder] on a two-socket host, with the flight recorder writing a
   trace file as bin/ihnetd.ml does. The bench pumps it with
   [Server.step ~timeout:0.] and keeps two real Unix-socket clients:

   - a writer replaces one of 64 live flows per op by
     pipelining [Flow_stop] and [Flow_start] in one write, so per-tick
     batching folds them into one epoch; a fault inject/clear pair and
     a short [Run_for] recur on a fixed cycle;
   - a reader, subscribed to telemetry, sends [Stats], and on every
     8th op a [Scan {ms = 0}].

   One op is one tick in which both clients' commands are outstanding;
   it ends when every reply has been read. Framing, the JSON codecs,
   the select loop, batching and trace encoding do most of the work:
   mutations and [Stats] set the median, [Scan] sets the tail. *)

module U = Ihnet_util
module E = Ihnet_engine
module Rec = Ihnet_record
module Api = Ihnet_api
module C = Api.Command
module Resp = Api.Response

type client = {
  fd : Unix.file_descr;
  rd : Api.Wire.reader;
  mutable replies : Resp.t list;  (** Newest first. *)
}

type counts = {
  mutable lines : int;  (** Trace lines through the sink. *)
  mutable events : int;  (** Stream frames the reader received. *)
  mutable event_bytes : int;
  mutable batchable : int;  (** [Command.batchable] commands sent. *)
}

type state = {
  host : Ihnet.Host.t;
  handlers : Api.Handlers.t;
  server : Api.Server.t;
  recorder : Rec.Recorder.t;
  oc : out_channel;
  writer : client;
  reader : client;
  live : int array;  (** Flow ids the writer holds. *)
  rng : U.Rng.t;
  counts : counts;
  spans : Span.t;
  step_span : int;
  encode_span : int;
  decode_span : int;
}

let population = 64

(* a set-up timed in another process runs beside this one's daemon *)
let socket = Printf.sprintf "perfbench-ihnetd-%d.sock" (Unix.getpid ())
let trace = Printf.sprintf "perfbench-ihnetd-%d.trace.jsonl" (Unix.getpid ())

(* flow endpoints on the two-socket host: DMA into either socket from
   its NICs, GPUs and SSDs, and from the network *)
let endpoints =
  [|
    ("nic0", "socket0"); ("nic1", "socket0"); ("gpu0", "socket0"); ("ssd0", "socket0");
    ("nic2", "socket1"); ("gpu1", "socket1"); ("ssd1", "socket1"); ("ext", "socket1");
  |]

(* the fixed cycle of extra writer commands *)
let cycle = 16
let fault_link = ("rp0.0", "pciesw0")

let extras i =
  let a, b = fault_link in
  match i mod cycle with
  | 3 -> [ C.Fault_inject { a; b; factor = 0.5; extra_us = 2.0; loss = 0.0 } ]
  | 7 -> [ C.Run_for { ms = 0.05 } ]
  | 11 -> [ C.Fault_clear { a; b } ]
  | _ -> []

let pump st =
  Span.enter st.spans st.step_span;
  ignore (Api.Server.step ~timeout:0.0 st.server);
  Span.leave st.spans

(* one write per client per op, so the server sees the whole pipeline
   in one tick *)
let send st c cmds =
  let frames =
    List.map
      (fun cmd ->
        if C.batchable cmd then st.counts.batchable <- st.counts.batchable + 1;
        Span.enter st.spans st.encode_span;
        let b = Api.Wire.encode (C.to_json cmd) in
        Span.leave st.spans;
        b)
      cmds
  in
  let data = Bytes.concat Bytes.empty frames in
  let rec write off =
    if off < Bytes.length data then
      match Unix.write c.fd data off (Bytes.length data - off) with
      | n -> write (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        pump st;
        write off
  in
  write 0

let buf = Bytes.create 65536

let receive st c =
  let rec drain () =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "ihnetd-rpc: the daemon closed a connection"
    | n ->
      Api.Wire.feed c.rd buf n;
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  drain ();
  let rec frames () =
    let pending = Api.Wire.pending c.rd in
    if pending > 0 then begin
      Span.enter st.spans st.decode_span;
      let frame = Api.Wire.pop c.rd in
      let decoded = Option.map Resp.of_json frame in
      Span.leave st.spans;
      match decoded with
      | None -> ()
      | Some (Error e) -> failwith ("ihnetd-rpc: malformed reply: " ^ e)
      | Some (Ok (Resp.Event _)) ->
        st.counts.events <- st.counts.events + 1;
        st.counts.event_bytes <- st.counts.event_bytes + pending - Api.Wire.pending c.rd;
        frames ()
      | Some (Ok r) ->
        c.replies <- r :: c.replies;
        frames ()
    end
  in
  frames ()

(* pump the server until [w] replies reached the writer and [r] the
   reader; returns them oldest first *)
let exchange st ~w ~r =
  let steps = ref 0 in
  while List.length st.writer.replies < w || List.length st.reader.replies < r do
    incr steps;
    if !steps > 100_000 then failwith "ihnetd-rpc: the daemon stopped replying";
    pump st;
    receive st st.writer;
    receive st st.reader
  done;
  let take c =
    let rs = List.rev c.replies in
    c.replies <- [];
    rs
  in
  (take st.writer, take st.reader)

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  { fd; rd = Api.Wire.reader (); replies = [] }

let flow_start st =
  let src, dst = U.Rng.pick st.rng endpoints in
  C.Flow_start
    { tenant = 1 + U.Rng.int st.rng 16; src; dst; gbps = Some (0.5 +. U.Rng.float st.rng 3.5) }

let flow_id = function
  | Resp.Flow_ok { flow } -> flow
  | _ -> failwith "ihnetd-rpc: flow start refused"

let setup ~seed ~traced:_ spans =
  let spec = Api.Host_spec.make ~seed () in
  let host = Api.Host_spec.create_host spec in
  let oc = open_out trace in
  let counts = { lines = 0; events = 0; event_bytes = 0; batchable = 0 } in
  let sink_span = Span.register spans "recorder.sink" in
  let sink line =
    Span.enter spans sink_span;
    Rec.Recorder.channel_sink oc line;
    Span.leave spans;
    counts.lines <- counts.lines + 1
  in
  let recorder =
    Rec.Recorder.attach ~label:"perfbench" ~seed ~sink (Ihnet.Host.fabric host)
  in
  let handlers = Api.Handlers.create ~recorder ~spec (Api.Handlers.Host host) in
  let server = Api.Server.create handlers socket in
  let writer = connect () and reader = connect () in
  let st =
    {
      host;
      handlers;
      server;
      recorder;
      oc;
      writer;
      reader;
      live = Array.make population 0;
      rng = U.Rng.stream seed 0;
      counts;
      spans;
      step_span = Span.register spans "server.step";
      encode_span = Span.register spans "wire.encode";
      decode_span = Span.register spans "wire.decode";
    }
  in
  let hello = C.Hello { version = C.version } in
  send st writer [ hello ];
  send st reader [ hello; C.Subscribe C.S_telemetry ];
  (match exchange st ~w:1 ~r:2 with
  | [ Resp.Hello_ok _ ], [ Resp.Hello_ok _; Resp.Ack ] -> ()
  | _ -> failwith "ihnetd-rpc: handshake failed");
  send st writer (List.init population (fun _ -> flow_start st));
  let ids, _ = exchange st ~w:population ~r:0 in
  List.iteri (fun i r -> st.live.(i) <- flow_id r) ids;
  st

let teardown st =
  Unix.close st.writer.fd;
  Unix.close st.reader.fd;
  Api.Server.stop st.server;
  Rec.Recorder.stop st.recorder;
  close_out st.oc;
  if Sys.file_exists trace then Sys.remove trace

(* the reply each command must get *)
let expected cmd reply =
  match (cmd, reply) with
  | C.Flow_start _, Resp.Flow_ok _
  | (C.Flow_stop _ | C.Fault_inject _ | C.Fault_clear _ | C.Run_for _), Resp.Ack
  | C.Stats, Resp.Stats_report _
  | C.Scan _, Resp.Scan_report _ ->
    true
  | _ -> false

(* exactly one reply of the expected kind per command, in order *)
let answered cmds replies =
  List.length cmds = List.length replies && List.for_all2 expected cmds replies

let op st i =
  let slot = U.Rng.int st.rng (Array.length st.live) in
  let wcmds = (C.Flow_stop { flow = st.live.(slot) } :: [ flow_start st ]) @ extras i in
  let rcmds =
    if i mod 8 = 0 then [ C.Scan { ms = 0.0; load = false; step = None; snapshot = false } ]
    else [ C.Stats ]
  in
  send st st.writer wcmds;
  send st st.reader rcmds;
  let wr, rr = exchange st ~w:(List.length wcmds) ~r:(List.length rcmds) in
  match wr with
  | _ :: Resp.Flow_ok { flow } :: _ when answered wcmds wr && answered rcmds rr ->
    st.live.(slot) <- flow;
    true
  | _ -> false

(* the recorded session replays bit-for-bit, and its final state is the
   live host's, register by register *)
let replay_check st =
  Rec.Recorder.stop st.recorder;
  flush st.oc;
  match Rec.Trace.load trace with
  | Error e -> [ "ihnetd-rpc: trace does not load: " ^ e ]
  | Ok trace -> (
    match (Rec.Replay.run trace, Rec.Replay.scan_reference trace) with
    | Error e, _ | _, Error e -> [ "ihnetd-rpc: replay failed: " ^ e ]
    | Ok report, Ok refs -> (
      let replayed =
        if Rec.Replay.ok report then []
        else [ Format.asprintf "ihnetd-rpc: replay diverged: %a" Rec.Replay.pp_report report ]
      in
      match List.assoc_opt (-1) refs with
      | None -> replayed @ [ "ihnetd-rpc: replay has no final snapshot" ]
      | Some final -> (
        match Rec.Scanport.diff ~scope:`Arch (Ihnet.Host.scan st.host) final with
        | None -> replayed
        | Some m ->
          replayed
          @ [ Format.asprintf "ihnetd-rpc: final scan differs: %a" Rec.Scanport.pp_mismatch m ])))

(* no reply is left over once the server has had a few more ticks *)
let gate ~check st =
  for _ = 1 to 8 do
    pump st;
    receive st st.writer;
    receive st st.reader
  done;
  let left = List.length st.writer.replies + List.length st.reader.replies in
  let stray =
    if left > 0 then [ Printf.sprintf "ihnetd-rpc: %d reply(ies) arrived that no op waited for" left ]
    else []
  in
  ((stray @ if check then replay_check st else []), 0)

let digest st =
  Printf.sprintf "scan=%016Lx lines=%d" (Ihnet.Host.scan st.host).Rec.Scanport.s_digest
    st.counts.lines

let counters st =
  let fab = Ihnet.Host.fabric st.host in
  let f = float_of_int in
  Host_churn.counters_of fab
  @ [
      ("lines", f st.counts.lines);
      ("bytes", f (pos_out st.oc));
      ("events", f st.counts.events);
      ("event_bytes", f st.counts.event_bytes);
      ("batchable", f st.counts.batchable);
      ("commands", f (Api.Handlers.commands st.handlers));
    ]

let layer ~ops ~delta =
  let reallocs = delta "reallocs" in
  Host_churn.fabric_layer ~ops ~delta
  @ [
      ("server.cmds_per_epoch", if reallocs > 0.0 then delta "batchable" /. reallocs else 0.0);
      ("recorder.lines_per_op", delta "lines" /. ops);
      ("recorder.bytes_per_op", delta "bytes" /. ops);
      ("stream.events_per_op", delta "events" /. ops);
      ("stream.bytes_per_op", delta "event_bytes" /. ops);
      ("handlers.cmds_per_op", delta "commands" /. ops);
    ]

(* an op takes about 0.2 ms and a set-up 3 ms *)
let workload =
  {
    Harness.rate = 5000.0;
    warmup = 500;
    setups = 21;
    probe_every = 4;
    setup;
    teardown;
    op;
    gate;
    digest;
    counters;
    layer;
  }
