(** The [ihnetd] serving loop: one live target, N concurrent clients.

    A single-threaded select/accept loop over a Unix-domain socket.
    Each connection must open with {!Command.Hello} at the current
    protocol version; everything after that is length-prefixed
    {!Command}/{!Response} frames ({!Wire}).

    {b Batching.} All complete frames readable in one loop tick are
    ingested together, and maximal consecutive runs of
    {!Command.batchable} mutations (flow starts/stops, fault
    injections/clears — across clients, in arrival order) execute
    under one {!Ihnet_engine.Fabric.batch}, so a burst of commands
    costs one reallocation epoch instead of one per command. Replies
    still go back per command, in order, to the issuing client.

    {b Streams.} [Subscribe]d clients receive [Event] frames pushed
    between replies: telemetry every [push_every]-th reallocation
    epoch (from a fabric event listener, using only pure [scan_*]
    reads), and remediation-action / evidence-report deltas polled
    after each executed command.

    {b Recording.} The server does not record by itself — attach a
    {!Ihnet_record.Recorder} to the target's fabric before serving
    (as [bin/ihnetd.ml] does) and every accepted mutation lands in
    the trace through the fabric's own event stream, so the whole
    session replays bit-for-bit. *)

type t

val claim_path : string -> unit
(** Make [path] free to bind: a stale socket there (a socket file
    that refuses connections) is removed; a missing path is left as
    is. [ihnetd] calls it before opening its trace file, so a refused
    start truncates nothing.
    @raise Failure naming [path] when anything else is there: a
    regular file, a directory, or a socket some server accepts
    connections on. *)

val create : ?push_every:int -> Handlers.t -> string -> t
(** [create handlers path] binds and listens on Unix-domain socket
    [path], after {!claim_path}. [push_every] (default 64) is the
    telemetry stream's epoch decimation. It sets SIGPIPE to ignored
    for the whole process, so a write to a client that has closed
    fails with EPIPE and drops that client instead of killing the
    process.
    @raise Failure when {!claim_path} refuses [path].
    @raise Unix.Unix_error when the socket cannot be bound. *)

val step : ?timeout:float -> t -> bool
(** One select round: accept, read, execute, push, flush. [timeout]
    (seconds, default 0.1) bounds the select wait. Returns [false]
    once the server has fully shut down (a [Shutdown] was served and
    every reply flushed) — callers loop on it. *)

val serve : t -> unit
(** Loop {!step} until shutdown. *)

val stop : t -> unit
(** Force shutdown: flush what is writable without blocking, close
    every connection and the listening socket, remove the socket
    file. Idempotent; {!serve} callers reach it through [Shutdown]
    instead. *)
