(** Control-channel fault injection.

    {!Fault} breaks the network and {!Sensorfault} breaks the eyes;
    this module breaks the {e strings} — the controller↔host control
    channel a fleet controller ({!Ihnet_fleet.Controller}) speaks over.
    A channel fault corrupts message {e delivery}: commands and health
    reports can be lost, delayed, duplicated, or blackholed entirely
    (partition), while both endpoints keep running normally on whatever
    state they last agreed on.

    The module follows {!Sensorfault}'s RNG-only-under-fault
    discipline: {!apply} on a {!none} fault (or on the healthy side of
    a partial fault) draws {e nothing} from the supplied RNG, so a
    fault-free fleet run is bit-identical to one with no channel model
    at all — the fleet-idle bench subject asserts it mechanically.
    Delivery delay is counted in controller {e rounds}, the fleet
    control plane's clock, not simulated nanoseconds: the channel is a
    property of the control plane, not of the intra-host fabric. *)

type fault = {
  loss : float;  (** Probability a message is silently dropped. *)
  delay_lo : int;
  delay_hi : int;
      (** Extra delivery delay, uniform in [\[delay_lo, delay_hi\]]
          controller rounds (0 = same-round delivery). *)
  dup_prob : float;  (** Probability a message is delivered twice. *)
  partitioned : bool;
      (** Both directions blackholed: nothing gets through until the
          partition heals. Deterministic — no RNG consumed. *)
}

val none : fault
(** The healthy channel: immediate, exactly-once delivery. *)

val lossy : loss:float -> ?dup_prob:float -> unit -> fault
val delayed : lo:int -> hi:int -> fault
val partition : fault

val merge : fault -> fault -> fault
(** Combine two faults on the same channel: loss/dup probabilities
    combine independently, delays add, partition wins. *)

type verdict =
  | Dropped  (** The message never arrives. *)
  | Delivered of { delay : int; copies : int }
      (** Arrives [delay] rounds late, [copies] ∈ {1, 2} times. *)

val apply : Ihnet_util.Rng.t -> fault -> verdict
(** Judge one message. [apply rng none] is [Delivered { delay = 0;
    copies = 1 }] {e without drawing from [rng]} — the discipline that
    keeps fault-free fleet runs bit-identical. A partition returns
    [Dropped] without drawing either (there is nothing probabilistic
    about a cut cable). Under a probabilistic fault the draw order is
    fixed: loss, then delay, then duplication. *)

val describe : fault -> string
(** Compact parameter list, e.g. ["loss 30%, delay 1-3 rounds"]. *)
