(** Heartbeat mesh: Pingmesh for the intra-host network.

    §3.1's motivating case — a silently degraded PCIe switch — "can be
    addressed by having devices on the intra-host network periodically
    send heartbeats to each other, similar to works like Pingmesh".

    Every probing device pings every other endpoint each round
    ([Probe]-class messages of 64 B). A probe {e fails} when it is lost
    to an injected fault or its RTT exceeds [rtt_factor ×] the per-pair
    baseline learned during the warm-up rounds. Failed paths feed a
    boolean-tomography localizer: links covered by failing paths but by
    no healthy path are suspects, ranked greedily by failure
    coverage. *)

type config = {
  period : Ihnet_util.Units.ns;  (** Probe round interval. *)
  rtt_factor : float;  (** Alarm when RTT > factor × baseline (e.g. 3). *)
  warmup_rounds : int;  (** Rounds used to learn baselines. *)
  probe_bytes : int;
}

val default_config : unit -> config
(** 1 ms rounds, 3× RTT alarm, 5 warm-up rounds, 64 B probes. *)

type probe_result = {
  src : Ihnet_topology.Device.id;
  dst : Ihnet_topology.Device.id;
  at : Ihnet_util.Units.ns;
  outcome : [ `Ok of Ihnet_util.Units.ns | `Slow of Ihnet_util.Units.ns | `Lost ];
}

type suspect = {
  link : Ihnet_topology.Link.id;
  bad_paths_covered : int;  (** Failing probe paths crossing this link. *)
  score : float;  (** Coverage fraction, 1.0 = explains every failure. *)
  paths_crossing : int;
      (** All probes over this link in the recent history window
          (last 8 rounds), any outcome. *)
  confidence : float;
      (** Failed fraction of [paths_crossing] — how much suspicion
          survives when the healthy crossings around a blackout round
          are counted. A dead link fails everything crossing it, so
          confidence converges to 1.0 within the window; a randomly
          lossy probe agent only surfaces on an all-paths-fail round,
          and confidence stays near its loss rate, well below 1. The
          evidence gate reads this, not [score]. *)
}

type t

val start :
  Ihnet_engine.Fabric.t -> ?config:config -> ?devices:Ihnet_topology.Device.id list -> unit -> t
(** [devices] defaults to every endpoint I/O device plus the CPU
    sockets. Probing starts immediately.
    @raise Invalid_argument naming the field unless [period > 0],
    [rtt_factor > 1] and [warmup_rounds >= 1] (NaN refused). *)

val stop : t -> unit

val rounds : t -> int
val results : t -> probe_result list
(** Most recent round's probe results. *)

val failing_pairs : t -> (Ihnet_topology.Device.id * Ihnet_topology.Device.id) list
(** Pairs whose last probe failed (lost or slow), post warm-up. *)

val localize : t -> suspect list
(** Boolean-tomography localization over the last round: suspects
    sorted by score, best first. Empty when nothing fails. *)

val healthy : t -> bool
(** No failures in the most recent round — goes back to [true] once a
    cleared fault stops affecting probes, so operators can watch
    recovery, not only detection. *)

val first_detection : t -> Ihnet_util.Units.ns option
(** Simulated time of the first post-warm-up probe failure, if any —
    the detection-latency metric of E6. *)

val probe_wire_bytes : t -> float
(** Cumulative fabric bytes consumed by probes ([Probe] class). *)
