(** The typed error taxonomy of the command plane.

    Every refusal a command can produce — locally or across the
    [ihnetd] wire — is one of these, so clients match on the cause
    instead of grepping message strings, and the CLI maps each cause
    to a {e documented, stable} exit code (the old behavior collapsed
    everything to 1). Manager refusals travel as the full
    {!Ihnet_manager.Mgr_error.t} payload, not its rendering. *)

type t =
  | Mgr of Ihnet_manager.Mgr_error.t
      (** An admission/management refusal, verbatim from the manager. *)
  | Invalid of string
      (** [Invalid_argument] from a lower layer, or a command field
          {!Handlers.run} rejected before execution. *)
  | Failed of string  (** [Failure] from a lower layer. *)
  | Protocol of string
      (** Wire-level trouble: connect/framing/decode/version. *)
  | Unsupported of string
      (** The daemon runs in the other mode (host vs fleet), or the
          command cannot be served remotely. *)

exception Error of t
(** Raised by client plumbing; handlers return [Err] responses
    instead. *)

val exit_code : t -> int
(** The CLI contract (also in doc/MODEL.md §17):
    [Invalid]/[Failed] → 1 (historical behavior), [Protocol] → 3,
    [Unsupported] → 4, and each {!Ihnet_manager.Mgr_error.t}
    constructor its own code, in declaration order:
    [Invalid_intent] 10, [Unknown_device] 11, [No_home_socket] 12,
    [No_path] 13, [No_uplink] 14, [No_downlink] 15,
    [Capacity_exhausted] 16, [Not_a_pipe] 17, [No_alternate_path] 18,
    [Host_unreachable] 19, [Retries_exhausted] 20,
    [No_feasible_host] 21. *)

val message : t -> string
(** What the CLI prints after "ihnetctl: " — for [Mgr] this is
    {!Ihnet_manager.Mgr_error.to_string}, byte-identical to the old
    string errors. *)

val to_json : t -> Ihnet_record.Trace.json
val of_json : Ihnet_record.Trace.json -> (t, string) result

val wrap : (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching [Invalid_argument]/[Failure]/{!Error} into
    the taxonomy. *)
