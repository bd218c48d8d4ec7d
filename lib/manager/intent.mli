(** Tenant performance intents.

    §3.2: the manageable intra-host network "interprets the application
    intent (i.e., performance targets) into a set of low-level
    requirements based on a resource model". An intent is what a tenant
    asks for; the {!Interpreter} compiles it, the {!Scheduler} places
    it, the {!Arbiter} enforces it.

    Two resource models are offered (§3.2-Q1, citing Duffield et al.'s
    hose model [16]):
    - {b pipe}: a guaranteed rate between one specific pair of devices —
      precise but reserves capacity on the whole pair path;
    - {b hose}: an aggregate ingress/egress guarantee at one device,
      whatever the peers — reserves only the device's uplink segment. *)

type target =
  | Pipe of { src : string; dst : string; rate : float }
      (** Guaranteed [rate] bytes/s from device [src] to device [dst]. *)
  | Hose of { endpoint : string; to_host : float; from_host : float }
      (** Aggregate guarantees at [endpoint]: [to_host] covers traffic
          from the device toward the host (inbound DMA writes),
          [from_host] the reverse (reads). *)

type t = {
  tenant : int;
  targets : target list;
  latency_bound : Ihnet_util.Units.ns option;
      (** Advisory SLO; the monitor checks it, the scheduler prefers
          shorter paths when set. *)
  p99_bound : Ihnet_util.Units.ns option;
      (** Tail-latency SLO: the tenant's observed p99 path latency —
          measured by the fabric's always-on latency sketches — must
          stay under this bound. {!Slo} judges it and, when the host
          wires [latency_sketches], {!Remediation.tail_latency_source}
          opens cases on breaches. Build with functional update:
          [{ (pipe ...) with p99_bound = Some (us 8.0) }]. *)
  work_conserving : bool;
      (** When true the tenant may exceed its guarantee using idle
          capacity; when false the guarantee is also a hard ceiling. *)
}

val pipe : tenant:int -> src:string -> dst:string -> rate:float -> t
(** Single-pipe work-conserving intent. *)

val hose : tenant:int -> endpoint:string -> to_host:float -> from_host:float -> t

val validate : t -> (unit, string) result
(** At least one target; every rate and bound finite, rates positive
    (a hose's two directions non-negative with a positive sum), bounds
    positive. *)

val total_guaranteed : t -> float
(** Sum of all target rates — a crude size measure for admission
    reports. *)

val pp : Format.formatter -> t -> unit
