(** Counter sources with an explicit fidelity model.

    §3.1-Q1 — "Informative data and where to find them?": hardware
    counters (Intel PCM/RDT-style) are informative but coarse — device
    aggregates only, no per-tenant attribution, limited read frequency;
    software interception is fine-grained but only sees what software
    can see. This module is the {e only} way the monitoring system may
    observe the fabric, and the chosen fidelity decides which of the
    fabric's counters are visible and how often they may be read. *)

type fidelity =
  | Hardware of { max_read_hz : float }
      (** PCM/RDT-class counters: per-link wire bytes and utilization,
          no per-tenant breakdown, reads above [max_read_hz] return
          stale values (the previous reading). *)
  | Software
      (** Interception-based: per-tenant and per-class attribution, no
          read-rate limit, but blind to induced traffic the hardware
          generates on its own (DDIO spill is invisible). *)
  | Oracle
      (** Full visibility, unlimited rate — an upper bound used to
          quantify what the realistic sources miss. *)

type reading = {
  at : Ihnet_util.Units.ns;
  wire_bytes : float;  (** Cumulative bytes on the link direction. *)
  utilization : float;
      (** Current rate over the link's {e nominal} capacity — a
          silently degraded link does not report its shrunken effective
          capacity to any counter (the §3.1 motivating case). *)
  per_tenant : (int * float) list;
      (** Cumulative per-tenant bytes; [] when the fidelity hides it. *)
  induced_bytes : float;
      (** Cumulative DDIO-induced bytes; 0 when invisible. *)
}

type t

val create : ?noise:float -> Ihnet_engine.Fabric.t -> fidelity:fidelity -> t
(** [noise] (default 0) is the absolute standard deviation, in
    utilization points, of Gaussian measurement noise applied to
    utilization and hit-rate readings — real PMU reads are noisy, and
    detector comparisons are only meaningful against that noise.
    Deterministic per fabric seed.
    @raise Invalid_argument unless [noise >= 0] (NaN included). *)

val fidelity : t -> fidelity
val fabric : t -> Ihnet_engine.Fabric.t

val read :
  t -> Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> tenants:int list -> reading
(** Read the counters of one link direction. Under [Hardware] fidelity,
    reads faster than [max_read_hz] return the cached previous reading
    (stale timestamps included) — exactly how rate-limited PMU access
    behaves. A device-scoped sensor fault on either end of the link
    corrupts the returned reading (drift scales it, stuck freezes it
    for the episode: the first read that finds the link's devices not
    stuck forgets the frozen reading, so a stuck fault armed again
    freezes the value read at re-arming); {!Sampler.health} judges
    what the sampler stores of it. While no sensor fault is armed
    ({!Ihnet_engine.Fabric.sensor_faults_armed}), the raw reading is
    returned with no lookup. *)

val ddio_hit_rate : t -> socket:int -> float option
(** LLC I/O-way hit rate; [None] under [Software] fidelity (no CPU
    uncore access). *)
