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

val next_live : t -> period:Ihnet_util.Units.ns -> Ihnet_util.Units.ns
(** Where a periodic chain that fires now, and would do nothing at its
    next firings, next fires to any effect: the first of
    [now t +. period], that [+. period], … (the repeated addition of
    [schedule ~after:period]) that is at or after the next queued
    event's time, or past the [until] of the innermost [run ~until] in
    progress. Outside such a run, and inside a bare {!step}, that is
    [now t +. period].

    Skipping to it is exact. Every firing skipped would have run
    before any other event and before [run] returned, so whenever
    anything else runs, the queue holds the same events at the same
    times in the same equal-time order as under a firing every
    [period]. *)

val step : t -> bool
(** Execute the next event. [false] when the queue is empty. The event
    runs outside any [run ~until] in progress (see {!next_live}), since
    control returns to the caller after it. *)

val run : ?until:Ihnet_util.Units.ns -> t -> unit
(** Drain events. With [until] (absolute time), stops — without
    executing — at the first event past it and advances the clock to
    exactly [until]. [run ~until] may nest inside an event; the
    innermost one in progress is the horizon {!next_live} reads, until
    it returns or raises. *)

val pending : t -> int
(** Number of queued events (testing aid). *)
