(** Corroboration gate between monitoring and remediation.

    Every detector in this library can lie: a stuck counter flatlines,
    a lossy probe agent accuses healthy links, a drifting PMU invents
    utilization shifts. This module fuses their per-link opinions into
    one verdict with a confidence score and only promotes a link to
    [`Corroborated] when {e independent} modalities agree (N-of-M
    quorum) — the precondition the remediation supervisor demands
    before high-cost actions ({!Ihnet_manager.Remediation.set_gate}).

    Reports live in a sliding time window and are replaced, not
    accumulated, per (link, modality): a detector repeating itself a
    thousand times is still one witness. Confidence combines reports as
    noisy-OR (independent sources). Operator-injected faults (observed
    via fabric events) count as a trusted modality by default — the
    operator knows what they injected — which preserves the PR-2
    behaviour for explicitly injected faults. *)

type modality = Operator | Heartbeat | Counter | Anomaly

val modality_label : modality -> string

type config = {
  window : Ihnet_util.Units.ns;  (** Report lifetime (sliding window). *)
  quorum : int;  (** Distinct strong modalities needed to corroborate. *)
  min_score : float;  (** Reports below this don't count toward quorum. *)
  trusted : modality list;
      (** Modalities that corroborate alone, regardless of quorum. *)
}

val default_config : unit -> config
(** 5 ms window, quorum 2, min score 0.25, trusted = [[Operator]]. *)

type t

val create : ?config:config -> Ihnet_engine.Fabric.t -> t
(** Subscribes to the fabric: operator fault injections/clears maintain
    the [Operator] modality automatically.
    @raise Invalid_argument on a non-positive window or quorum. *)

val report :
  t -> modality:modality -> link:Ihnet_topology.Link.id -> score:float -> unit
(** Record (or refresh) one modality's opinion of one link. [score] is
    clamped to [\[0,1\]]. *)

val invalidate : t -> modality:modality -> link:Ihnet_topology.Link.id -> unit
(** Withdraw a modality's report — e.g. when {!Sampler.health} says
    the sensor behind it is itself lying. *)

val feed_heartbeat : t -> Heartbeat.suspect list -> unit
(** Report each suspect under the [Heartbeat] modality at its
    coverage-discounted {!Heartbeat.suspect.confidence} (not its raw
    score — that is the point). *)

val feed_anomaly : ?score:float -> t -> Anomaly.alarm list -> unit
(** Report alarms on ["link.<id>.*"] series under [Anomaly] (default
    score 0.9); alarms on other series are ignored. *)

val verdict :
  t ->
  Ihnet_topology.Link.id ->
  [ `Unknown | `Suspected of float | `Corroborated of float ]
(** Fused verdict for one link over the live window. [`Unknown]: no
    live reports. The payload is the noisy-OR combined confidence.
    [`Corroborated] requires a trusted modality or [quorum] distinct
    modalities at [min_score] or better. *)

val gate :
  t -> Ihnet_topology.Link.id -> [ `Unknown | `Suspected of float | `Corroborated of float ]
(** [gate t] is {!verdict} partially applied — shaped for
    {!Ihnet_manager.Remediation.set_gate}, which takes a closure so the
    manager layer stays monitor-agnostic. *)

val suspects : t -> (Ihnet_topology.Link.id * float) list
(** Every link with a live report and its combined confidence, link id
    ascending. *)

val report_count : t -> int
(** Live reports across all links (diagnostics). *)

val scan_reports :
  t -> (Ihnet_topology.Link.id * modality * float * Ihnet_util.Units.ns) list
(** Raw evidence-window contents for the scan port:
    [(link, modality, score, reported_at)] sorted by link then
    modality. A {e pure read} — expired reports are neither filtered
    nor pruned (unlike {!suspects}, which compacts the window as it
    reads), so scanning never mutates the evidence state. *)
