(** Flows: the unit of traffic in the fluid simulation.

    A flow moves bytes along a fixed {!Ihnet_topology.Path.t} at a rate
    decided by the fabric's max-min allocation, subject to its source
    demand and the arbiter's floor/cap. Flows carry a traffic class so
    the monitor can account for its own overhead (§3.1-Q2) and so
    [ihdump] can filter captures. *)

type cls =
  | Payload  (** Application traffic. *)
  | Monitoring  (** Telemetry shipping (counted as monitor overhead). *)
  | Heartbeat  (** Device-to-device liveness probes. *)
  | Probe  (** Diagnostic traffic: ihping/ihperf. *)
  | Induced
      (** Traffic the fabric generates as a side effect — DDIO-miss
          write-backs and re-reads on the memory bus. Never set on
          user-created flows. *)

type size = Bytes of float | Unbounded

type state = Running | Completed | Stopped

type t = {
  id : int;
  tenant : int;  (** Owning tenant (0 = infrastructure). *)
  cls : cls;
  path : Ihnet_topology.Path.t;
  size : size;
  demand : float;  (** Source offered rate, bytes/s; [infinity] = elastic. *)
  payload_bytes : int;
      (** Per-transaction payload on PCIe hops, for protocol-efficiency
          accounting (small payloads waste link capacity on headers). *)
  working_set_pages : int;
      (** Distinct IOVA pages the flow's DMA touches (IOTLB pressure). *)
  llc_target : bool;
      (** True when DMA writes terminate in the LLC via DDIO (the path
          then ends at the CPU socket, not a DIMM). *)
  started_at : Ihnet_util.Units.ns;
  mutable weight : float;  (** Max-min weight (default 1.0). *)
  mutable floor : float;  (** Guaranteed rate, bytes/s (arbiter). *)
  mutable cap : float;  (** Rate ceiling, bytes/s (arbiter); [infinity] = none. *)
  mutable rate : float;  (** Current allocated rate (engine-owned). *)
  mutable remaining : float;  (** Bytes left ([infinity] for unbounded). *)
  mutable transferred : float;  (** Bytes moved so far. *)
  mutable state : state;
  mutable completed_at : Ihnet_util.Units.ns;  (** Valid when [Completed]. *)
  on_complete : (t -> unit) option;
}

val cls_label : cls -> string

val cls_of_label : string -> cls option
(** Inverse of {!cls_label}: [cls_of_label (cls_label c) = Some c];
    [None] for a string that names no class. *)

val effective_demand : t -> float
(** [min demand cap] — the most the source may be given. *)

val eta_ns : t -> float
(** Nanoseconds until the flow drains at its current rate; [infinity]
    when unbounded or stalled. The fabric keys its completion heap on
    [now + eta_ns]. *)

val duration : t -> Ihnet_util.Units.ns
(** Completion time minus start time.
    @raise Invalid_argument if the flow has not completed. *)

val pp : Format.formatter -> t -> unit
