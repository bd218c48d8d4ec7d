(** A managed host: simulator + fabric + tenant registry + (optional)
    monitoring and resource management, behind one handle.

    This is the library's front door. Lower layers remain fully usable
    directly; [Host] only wires them together and owns their
    lifetimes. *)

type preset =
  | Two_socket  (** Figure 1's example server. *)
  | Dgx  (** 8-GPU/8-NIC DGX-like box. *)
  | Epyc  (** Flat, switchless EPYC-like box. *)
  | Minimal  (** One socket, one NIC. *)
  | Custom of Ihnet_topology.Topology.t

type t

type wiring = {
  heartbeat : bool;
      (** Start the heartbeat mesh and wire
          {!Ihnet_monitor.Heartbeat.localize} in as a remediation
          detector source, so silent faults — not just
          operator-injected ones — open cases. Default [true]. *)
  evidence : bool;
      (** Create an {!Ihnet_monitor.Evidence.t} corroboration gate,
          feed heartbeat suspects into it, and install it via
          {!Ihnet_manager.Remediation.set_gate} — migrations and
          degradations then require independent-modality agreement.
          Default [false]. *)
  headroom : float;
      (** Reservable fraction of each link the scheduler may admit
          against. Default 0.9. *)
  shim_period : Ihnet_util.Units.ns;
      (** Polling period of the arbiter's enforcement shim.
          Default 50 µs. *)
  sampler : Ihnet_monitor.Sampler.config option;
      (** Sampler configuration for {!start_monitoring};
          [None] (default) means {!Ihnet_monitor.Sampler.default_config}. *)
  latency_sketches : bool;
      (** Enable the fabric's always-on latency-percentile plane
          ({!Ihnet_engine.Fabric.enable_latency_sketches}) when a
          subsystem starts with this wiring, and — under
          {!enable_remediation} — wire the tail-latency SLO detector
          ({!Ihnet_manager.Remediation.tail_latency_source}) in as a
          case source, so placements with a [p99_bound] are watched and
          remediated. Default [false]. *)
}
(** How the optional subsystems are wired when enabled — one record
    instead of a per-function option soup. Build variations with
    functional update: [{ default_wiring with evidence = true }]. *)

val default_wiring : wiring

val create : ?seed:int -> ?config:Ihnet_topology.Hostconfig.t -> preset -> t
(** Builds (and validates) the topology and the fabric, with the
    fabric's component memo on.
    @raise Invalid_argument if a custom topology fails validation. *)

val sim : t -> Ihnet_engine.Sim.t
val fabric : t -> Ihnet_engine.Fabric.t
val topology : t -> Ihnet_topology.Topology.t
val tenants : t -> Ihnet_workload.Tenant.registry

val now : t -> Ihnet_util.Units.ns
val run_for : t -> Ihnet_util.Units.ns -> unit
(** Advance the simulation by a duration.
    @raise Invalid_argument if [duration] is negative or NaN. *)

val run_until_idle : t -> unit
(** Drain all pending events (careful: periodic monitors never
    drain — stop them first, or use {!run_for}). *)

val add_tenant : t -> name:string -> Ihnet_workload.Tenant.t
(** Registers a VM tenant. *)

(** {1 Monitoring} *)

val start_monitoring : t -> ?wiring:wiring -> unit -> Ihnet_monitor.Sampler.t
(** Starts the counter sampler ([wiring.sampler] configures it).
    Idempotent: returns the running sampler if one exists. *)

val sampler : t -> Ihnet_monitor.Sampler.t option
val start_heartbeats : t -> ?config:Ihnet_monitor.Heartbeat.config -> unit -> Ihnet_monitor.Heartbeat.t
val heartbeat : t -> Ihnet_monitor.Heartbeat.t option

(** {1 Resource management} *)

val enable_manager : t -> ?wiring:wiring -> unit -> Ihnet_manager.Manager.t
(** Creates the manager ([wiring.headroom]) and starts its shim
    ([wiring.shim_period]). Idempotent. *)

val manager : t -> Ihnet_manager.Manager.t option

val enable_remediation :
  t ->
  ?config:Ihnet_manager.Remediation.config ->
  ?wiring:wiring ->
  unit ->
  Ihnet_manager.Remediation.t
(** Creates the self-healing supervisor (enabling the manager if
    needed, with the same [wiring]) and starts its
    detect → diagnose → act loop. [wiring.heartbeat] and
    [wiring.evidence] select the detector source and the corroboration
    gate — see {!wiring}. Idempotent. *)

val remediation : t -> Ihnet_manager.Remediation.t option
val evidence : t -> Ihnet_monitor.Evidence.t option

val submit_intent :
  t -> Ihnet_manager.Intent.t -> (Ihnet_manager.Placement.t list, Ihnet_manager.Manager.error) result
(** Enables the manager (defaults) if needed, then submits. Match on
    {!Ihnet_manager.Manager.error} (or render it with
    {!Ihnet_manager.Manager.error_to_string}) on refusal. *)

(** {1 Diagnostics shortcuts} *)

val scan : t -> Ihnet_record.Scanport.snapshot
(** Dump the host's full scan chain ({!Ihnet_record.Scanport}):
    fabric registers always, plus the remediation state machines and
    the evidence window when those subsystems are enabled. Zero
    impact — a scanned run is bit-identical to a bare one. *)

val scan_summary : t -> Ihnet_record.Scanport.summary
(** The epoch, register count and digest {!scan} would report, from
    the digest-only read ({!Ihnet_record.Scanport.summary}): the same
    chain walked without rendering a path or keeping a register. *)

val ping : t -> src:string -> dst:string -> Ihnet_util.Units.ns option
val trace : t -> src:string -> dst:string -> Ihnet_monitor.Diagnostics.trace_hop list
val bandwidth : t -> src:string -> dst:string -> float
(** Instantaneous available bandwidth (what-if), bytes/s. *)

val check_configuration : t -> string list
(** Static misconfiguration findings. *)
