(** Anomaly-detection platform (§3.1): streaming detectors over
    telemetry series plus static misconfiguration checks.

    "A platform to analyze monitoring results holistically, enabling
    device failure, misconfiguration, and performance anomaly
    detection." Detectors are deliberately simple, well-understood
    statistics — threshold, EWMA deviation, CUSUM — because the
    interesting question (Q3) is what data they get to see, which is
    decided by the {!Counter.fidelity} and {!Sampler} period feeding
    the telemetry. *)

type detector =
  | Threshold of { above : float option; below : float option }
      (** Alarm when a sample crosses a static bound. *)
  | Ewma_deviation of { alpha : float; k : float }
      (** Alarm when a sample deviates more than [k] running standard
          deviations from the EWMA. *)
  | Cusum of { drift : float; threshold : float }
      (** Alarm on small persistent shifts of the series mean. *)

type alarm = {
  at : Ihnet_util.Units.ns;  (** Timestamp of the offending sample. *)
  series : string;
  value : float;
  reason : string;  (** Human-readable, e.g. ["cusum up-shift"]. *)
}

type t

val create : unit -> t

val watch : t -> series:string -> detector -> unit
(** Multiple detectors per series are allowed. *)

val watch_tail : t -> series:string -> ?p99_above:float -> unit -> unit
(** Install a {!Threshold} detector on the [.p99] sub-series of a
    latency-percentile snapshot (see {!Telemetry.pct_series}) — the
    tail-latency alarm over a {!Sampler.latency_series} or the
    host-wide ["flow.latency"] snapshot the sampler records at flow
    completions. An omitted bound installs nothing. *)

val observe : t -> series:string -> at:Ihnet_util.Units.ns -> float -> unit
(** Feed one sample directly to the detectors watching [series]. *)

val feed : t -> Telemetry.t -> unit
(** Feed every watched series' samples not yet processed (tracked per
    series by timestamp). Call after each sampler tick, or less often —
    detection latency then includes the feeding cadence. *)

val alarms : t -> alarm list
(** All alarms so far, oldest first. *)

val first_alarm : t -> alarm option
val clear_alarms : t -> unit

(** {1 Static misconfiguration checks}

    The monitor-for-configuration of §3.1: inspects the host
    configuration and topology for known-bad settings. *)

val check_configuration : Ihnet_topology.Topology.t -> string list
(** Empty when clean; otherwise one message per finding, e.g. a NIC
    whose inter-host port outruns its PCIe slot, DDIO disabled with
    fast NICs present, a tiny IOTLB, ACS forcing P2P through the root
    complex, deep interrupt moderation, or an oversubscribed PCIe
    switch. *)
