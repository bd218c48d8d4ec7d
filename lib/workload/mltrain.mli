(** Machine-learning trainer: the paper's bandwidth-hungry co-tenant.

    §2: "The machine learning application may have a substantial
    workload for CPU-GPU communication (e.g., loading training data)
    and heavily utilize the bandwidth of the PCIe fabric and the memory
    bus."

    Each iteration: load a batch from host memory to the GPU (a finite
    flow over mesh + PCIe), compute for a fixed time, optionally push a
    gradient-sync transfer GPU → NIC, then repeat. Iteration durations
    are recorded; fabric congestion directly stretches them. *)

type config = {
  tenant : int;
  gpu : string;
  data_source : string;  (** Device the batch is read from (a DIMM). *)
  loader_streams : int;
      (** Parallel data-loader workers. Stream [i] reads its share of
          the batch from the i-th DIMM of the GPU's socket (starting at
          [data_source]), the framework-prefetcher pattern that makes
          training saturate the PCIe uplink rather than a single DDR
          channel. *)
  batch_bytes : float;
  compute_time : Ihnet_util.Units.ns;  (** GPU compute per iteration. *)
  sync : (string * float) option;
      (** [(nic, bytes)]: per-iteration gradient push to the inter-host
          network via [nic]; [None] for single-GPU training. *)
  iterations : int option;  (** [None] = run until stopped. *)
}

val default_config : tenant:int -> gpu:string -> data_source:string -> config
(** 256 MiB batches, 2 loader streams, 5 ms compute, no sync, unbounded
    iterations. *)

type t

val start : Ihnet_engine.Fabric.t -> config -> t
(** @raise Invalid_argument ["no device NAME"] on an unknown device, or
    naming the field unless [batch_bytes > 0], [compute_time >= 0] and
    [loader_streams >= 1]. *)

val stop : t -> unit

val iterations_done : t -> int
val iteration_times : t -> Ihnet_util.Sketch.t
(** Wall-clock duration of completed iterations (ns). *)

val running : t -> bool
