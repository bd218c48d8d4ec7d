(** NVMe storage traffic: Poisson block reads/writes between an SSD and
    host memory, with heavy-tailed block sizes. A third source of
    intra-host pressure (§2 lists "RAID SSDs" among the DDIO
    thrashers). *)

type config = {
  tenant : int;
  ssd : string;
  target : string;  (** Memory endpoint (a DIMM or a socket for DDIO). *)
  iops : float;  (** Operation arrival rate, ops/s. *)
  read_fraction : float;  (** In [\[0,1\]]: reads are SSD→memory. *)
  block : Traffic.size_dist;
}

val default_config : tenant:int -> ssd:string -> target:string -> config
(** 20 k IOPS, 70% reads, Pareto blocks (α = 1.5, min 16 KiB). *)

type t

val start : Ihnet_engine.Fabric.t -> ?rng:Ihnet_util.Rng.t -> config -> t
(** @raise Invalid_argument ["no device NAME"] when the SSD or target
    does not exist, or naming the field unless [iops > 0] and
    [read_fraction] is in \[0, 1\]. *)

val stop : t -> unit

val completed_ops : t -> int
val op_latencies : t -> Ihnet_util.Sketch.t
(** Transfer durations of completed operations, ns. *)

val bytes_moved : t -> float
