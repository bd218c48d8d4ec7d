(** Discrete-event simulation core.

    A simulation is a clock plus a priority queue of timestamped
    events. Events scheduled at equal times fire in scheduling order
    (FIFO), so runs are deterministic. Time is simulated nanoseconds
    and never flows backwards. *)

type t

val create : unit -> t

val now : t -> Ihnet_util.Units.ns

val schedule : t -> after:Ihnet_util.Units.ns -> (t -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t +. after].
    @raise Invalid_argument unless [after >= 0.] (NaN included). *)

val schedule_at : t -> Ihnet_util.Units.ns -> (t -> unit) -> unit
(** Absolute-time variant; clamps times in the past to [now].
    @raise Invalid_argument on a NaN time. *)

val every : t -> period:Ihnet_util.Units.ns -> ?until:Ihnet_util.Units.ns -> (t -> unit) -> unit
(** Periodic event, first firing one [period] from now, stopping after
    [until] (absolute) when given.
    @raise Invalid_argument unless [period > 0.] (NaN included). *)

val step : t -> bool
(** Execute the next event. [false] when the queue is empty. *)

val run : ?until:Ihnet_util.Units.ns -> t -> unit
(** Drain events. With [until] (absolute time), stops — without
    executing — at the first event past it and advances the clock to
    exactly [until]. *)

val pending : t -> int
(** Number of queued events (testing aid). *)
