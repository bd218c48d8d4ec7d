(** Telemetry-plane fault injection.

    {!Fault} breaks the network; this module breaks the {e eyes}. A
    sensor fault corrupts what the monitoring layer reads — counters,
    sampler series, heartbeat probes — while the fabric underneath
    keeps behaving normally. Injecting one therefore never triggers a
    reallocation and never changes any flow's rate: only the telemetry
    path lies. That separation is what lets the evidence gate be tested
    honestly (a lying sensor must not be distinguishable from a real
    fault by cheating and peeking at the fabric).

    All randomness consumed when applying a fault (sample drops,
    duplications, probe corruption) is drawn from the consumer's own
    seeded RNG stream, so runs remain bit-for-bit deterministic and the
    flight recorder replays them exactly. *)

type target =
  | Device of Ihnet_topology.Device.id
      (** Corrupts hardware counters of links incident to the device
          and heartbeat probes originating or terminating there. *)
  | Series of string
      (** Corrupts one named telemetry series at the sampler
          (e.g. ["link.4.fwd.bytes"]). *)

type sensor_fault = {
  stuck : bool;  (** Counter freezes at its current value. *)
  drift : float;
      (** Multiplicative miscalibration; 1.0 = exact. Values > 1 can
          produce physically impossible readings (more bytes than
          capacity x time), which the range detector catches. *)
  drop_prob : float;  (** Probability a sample is silently dropped. *)
  dup_prob : float;  (** Probability a sample is recorded twice. *)
  skew : Ihnet_util.Units.ns;
      (** Bounded clock skew added to sample timestamps. *)
  probe_loss : float;
      (** Probability a heartbeat probe falsely reports [`Lost]. *)
  probe_slow : float;
      (** Probability a heartbeat probe falsely reports [`Slow]. *)
}

type t

val create : unit -> t
val none : sensor_fault
(** The healthy sensor: no corruption of any kind. *)

val is_none : sensor_fault -> bool

val stuck_at : sensor_fault
val drifting : factor:float -> sensor_fault
val lossy : drop_prob:float -> ?dup_prob:float -> unit -> sensor_fault
val skewed : skew:Ihnet_util.Units.ns -> sensor_fault
val probe_corruption : loss:float -> ?slow:float -> unit -> sensor_fault

val merge : sensor_fault -> sensor_fault -> sensor_fault
(** Combine two faults affecting the same reading (e.g. both endpoint
    devices of a link): stuck if either is stuck, drifts multiply,
    probabilities combine independently, skews add. *)

(** The fields {!validate} checks. *)
type field = Drift | Drop_prob | Dup_prob | Skew | Probe_loss | Probe_slow

val validate : ?name:(field -> string) -> sensor_fault -> (unit, string) result
(** [Error] names the first bad field and its value, e.g. ["drift must
    be >= 0 (got nan)"]: a probability outside \[0, 1\], a [drift]
    that is not [>= 0] or a [skew] that is not finite (NaN fails every
    check). [name] spells the field as the input did (default: its
    record field name, e.g. ["drop_prob"]); a trace passes its line's
    keys. *)

val inject : t -> target -> sensor_fault -> unit
(** @raise Invalid_argument ["Sensorfault.inject: "] followed by the
    {!validate} error. *)

val clear : t -> target -> unit
val clear_all : t -> unit
val get : t -> target -> sensor_fault
(** {!none} when no fault is installed on the target. *)

val active : t -> (target * sensor_fault) list
(** Installed faults, deterministically ordered (devices by id, then
    series by name). *)

val count : t -> int

val target_label : target -> string
(** ["device 3"] / ["series link.4.fwd.bytes"] — for logs and CLIs. *)

val describe : sensor_fault -> string
(** Compact human-readable parameter list, e.g.
    ["stuck, drift x1.50, drop 10%"]. *)
