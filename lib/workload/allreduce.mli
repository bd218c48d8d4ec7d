(** Ring allreduce over the intra-host fabric.

    Multi-GPU training synchronizes gradients every iteration; ring
    allreduce moves [2(N−1)] chunks of [size/N] bytes, every GPU
    sending to its ring successor simultaneously. On a multi-socket
    host the {e ring order} decides how often chunks cross the
    inter-socket link — the §4 observation (BytePS [31]) that
    scheduling the workload against the topology "reduces PCIe
    contention and improves communication among GPU workers". E14
    measures a naive vs a topology-aware ring. *)

type config = {
  tenant : int;
  ring : string list;  (** GPU device names, in ring order (≥ 2). *)
  data_bytes : float;  (** Gradient size per iteration. *)
  iterations : int;
}

type t

val start : Ihnet_engine.Fabric.t -> config -> t
(** Runs [iterations] allreduces back to back; each of the [2(N−1)]
    steps starts N concurrent chunk flows and waits for all of them.
    @raise Invalid_argument ["no device NAME"] on an unknown device,
    on a ring shorter than 2 or with two equal neighbours, or naming
    the field unless [data_bytes > 0] and [iterations >= 1]. *)

val stop : t -> unit
val iterations_done : t -> int
val iteration_times : t -> Ihnet_util.Sketch.t
val running : t -> bool

val algorithmic_bandwidth : t -> float
(** [data_bytes / median iteration time] — the effective allreduce
    bandwidth figure ML papers quote (bytes/s); [nan] before the first
    iteration completes. *)

(** {1 Ring placement} *)

val ring_cost : Ihnet_topology.Topology.t -> string list -> float
(** Sum over ring edges of the GPU-to-GPU path base latency — the
    congestion proxy the optimizer minimizes (inter-socket hops
    dominate it). *)

val optimize_ring : Ihnet_topology.Topology.t -> string list -> string list
(** Reorder the GPUs to minimize {!ring_cost} (exhaustive over
    (N−1)!/2 rotations-and-reflections; fine for N ≤ 9 — a host has at
    most 8 GPUs). The first GPU stays first. *)
