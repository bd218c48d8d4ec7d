(** Blocking client for an [ihnetd] socket.

    [connect] performs the {!Command.Hello} handshake; {!call} then
    runs one command per round trip. Streamed [Event] frames can
    arrive between a request and its reply — {!call} drops them and
    keeps reading until the actual reply shows up; {!next_event} is
    the way to read a stream. *)

type t

val connect : string -> t
(** Dial a socket path and handshake.
    @raise Api_error.Error [(Protocol _)] when the socket cannot be
    reached, the daemon speaks another version, or the greeting is
    malformed. *)

val call : t -> Command.t -> Response.t
(** Send one command, return its reply.
    @raise Api_error.Error [(Protocol _)] on EOF or framing trouble. *)

val next_event : t -> Response.event option
(** Block for the next pushed [Event] frame; [None] on clean EOF
    (daemon shut down). Non-event frames arriving here are a protocol
    error. *)

val close : t -> unit
