(** Command execution against a live target.

    The ~15 subcommand bodies that used to live inline in
    [bin/ihnetctl.ml], carved out as pure [command -> response]
    handlers over one {!target}. The CLI runs them on a fresh
    in-process host or fleet controller; [ihnetd] runs them on its
    long-lived one. Either way the data that comes back is
    the same, and {!Render} reproduces the historical output from it
    byte-for-byte. *)

type target =
  | Host of Ihnet.Host.t
  | Fleet of Ihnet_fleet.Controller.t

type t

val create :
  ?recorder:Ihnet_record.Recorder.t -> spec:Host_spec.t -> target -> t
(** [recorder], when the target session is being recorded, lets the
    handlers wire remediation actions into the trace
    ({!Ihnet_record.Recorder.observe_remediation}) the moment
    remediation is first enabled. *)

val local : Host_spec.t -> t
(** Build the host from the spec and wrap it. *)

val host : t -> Ihnet.Host.t option

val commands : t -> int
(** Commands executed so far (for [Stats]). *)

val set_clients : t -> int -> unit
(** The daemon's live-connection count, surfaced in [Stats]. *)

val run : t -> Command.t -> Response.t
(** Execute one command. Never raises: [Invalid_argument]/[Failure]
    from lower layers and typed manager refusals come back as
    [Response.Err] with the {!Api_error} taxonomy. Before any effect,
    every [ms] field and a [Fault_inject]'s [extra_us] must be finite
    and [>= 0], a [Fault_inject]'s [factor] and [loss], a [Heal]'s
    [factor] and a [Fleet_loss]'s [loss] must lie in [\[0, 1\]], a
    [Ping]'s [count], a [Monitor]'s [period_us] and a [Scenario]'s
    [protect] must be [> 0] (the two floats finite too), a [Heal]'s
    [flap] must be [>= 1], a [Scan]'s [step] [>= 0] and a
    [Flow_start]'s [gbps], when given, [>= 0] (NaN refused); a
    violation is an [Invalid] that names the command and field. A
    [Fleet_submit] intent that fails
    {!Ihnet_manager.Intent.validate} is refused as
    [Mgr (Invalid_intent _)], as a host's [Submit] is. [Check]
    inspects the target host's own topology and configuration; in
    fleet mode it is [Unsupported], like every host command. [Hello],
    [Subscribe] and [Shutdown] get their trivial replies here
    ([Hello_ok] / [Ack] / [Bye]); the transport-level
    behavior (version check, stream registration, connection teardown)
    is the server's. *)

val telemetry_sample : t -> Response.event option
(** One [Ev_telemetry] snapshot of the host fabric, built from the
    pure [scan_*] reads — [None] in fleet mode. *)
