(** Periodic counter sampling into the telemetry store, with explicit
    overhead accounting.

    §3.1-Q2 — "The dilemma of storage and processing": monitoring data
    must go somewhere. Either it is processed {e locally} on the device
    (consuming its scarce compute) or {e shipped} across the very
    fabric being monitored (consuming PCIe/memory bandwidth as
    [Monitoring]-class flows). Both costs are measured here, and E7
    sweeps the sampling period against them and against detection
    latency. *)

type processing =
  | Local of { cost_per_sample : Ihnet_util.Units.ns }
      (** On-device aggregation: each sample costs device compute. *)
  | Ship of { collector : string; bytes_per_sample : float }
      (** Raw samples are DMA'd to the collector device (a CPU socket);
          the sampler maintains [Monitoring]-class flows from every
          I/O device toward it, sized to the telemetry rate. *)

type config = {
  period : Ihnet_util.Units.ns;  (** Sampling interval. *)
  fidelity : Counter.fidelity;
  noise : float;  (** Relative counter-read noise (see {!Counter.create}). *)
  processing : processing;
  tenants : int list;  (** Tenants to attribute (fine fidelity only). *)
}

val default_config : unit -> config
(** 100 µs period, hardware fidelity at 10 kHz, local processing at
    500 ns/sample, no tenant attribution. *)

type t

val start : Ihnet_engine.Fabric.t -> config -> t
(** Begins ticking immediately (first tick one period from now) into a
    fresh telemetry store. Every series a tick writes is interned here
    as a {!Telemetry.handle} (latency-percentile sub-series at their
    first sample), so a tick formats and hashes no name: while no
    sensor fault is armed, a sample is two float stores. A
    [Series]-scoped sensor fault is looked up by the handle's name; a
    stuck one freezes the value read at the first sample of its
    episode, and forgets it once the series reads not stuck.
    @raise Invalid_argument unless [config.period > 0], or when
    {!Counter.create} refuses [config.noise]. *)

val stop : t -> unit

val telemetry : t -> Telemetry.t
val ticks : t -> int

val cpu_time_consumed : t -> Ihnet_util.Units.ns
(** Total device compute burned by local processing. *)

val shipping_rate : t -> float
(** Current aggregate telemetry-shipping rate (bytes/s); 0 for local
    processing. *)

val monitoring_wire_bytes : t -> float
(** Cumulative fabric bytes consumed by [Monitoring]-class traffic —
    the monitor's own footprint on the network it watches. *)

val health :
  t ->
  (Ihnet_topology.Link.id * Ihnet_topology.Link.dir * [ `Flatline | `Out_of_range ]) list
(** Per-(link, dir) plausibility verdicts over the retained telemetry,
    computed on demand. [`Out_of_range]: some consecutive byte-counter
    delta exceeds nominal capacity x elapsed time, or is negative
    (physically impossible — a sensor that over-reports, starts
    under-reporting, or stops over-reporting). [`Flatline]: the last
    three byte samples are identical while the utilization series shows
    load (a stuck sensor). Judged purely on stored samples, so
    corruption injected anywhere between counter and store is caught;
    a verdict lasts only while the samples that raised it are retained
    (the store's per-series capacity, 1024 samples by default — about
    100 ms at the default period). *)

(** {1 Series naming} *)

val util_series : Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> string
val bytes_series : Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> string
val ddio_series : socket:int -> string

val latency_series : Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> string
(** Base name of a link's latency-percentile snapshot
    (["link.3.fwd.latency"]); fields live in [.p50]/[.p99]/… sub-series
    (see {!Telemetry.pct_series}). Sampled only while the fabric's
    latency-sketch plane is enabled, once the sketch has samples. *)
