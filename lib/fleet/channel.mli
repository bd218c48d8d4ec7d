(** One direction of a controller↔host control link, faulty by
    construction.

    A channel is a FIFO of in-flight messages, clocked in controller
    rounds: {!send} passes the message through the channel's
    {!Ihnet_engine.Chanfault} model (loss, delay, duplication,
    partition) and {!tick} — called once per round — delivers whatever
    arrives this round, in send order. With the fault model at
    {!Ihnet_engine.Chanfault.none} a channel is a perfect one-round
    queue {e and draws nothing from its RNG}, so a fault-free fleet
    run is bit-identical to one with no channel plane at all
    (mirroring the telemetry plane's {!Ihnet_engine.Sensorfault}
    discipline).

    Channels are single-owner: each lives with its host record and is
    only touched by that host's shard task or the coordinator, never
    both in the same phase. *)

type 'a t

val create : Ihnet_util.Rng.t -> 'a t
(** A perfect channel ({!Ihnet_engine.Chanfault.none}) drawing any
    fault randomness from the given generator — the fleet hands each
    host's channels dedicated {!Ihnet_util.Rng.stream}s so faults on
    one host never perturb another's draws. *)

val set_fault : 'a t -> Ihnet_engine.Chanfault.fault -> unit

val send : 'a t -> 'a -> unit
(** Pass the message through the fault model: it is dropped, delayed
    by whole rounds, and/or duplicated as the verdict dictates. A
    message sent with effective delay [d] is returned by the [d]-th
    subsequent {!tick}. *)

val tick : 'a t -> 'a list
(** Advance one round: messages whose delay has elapsed, oldest send
    first (duplicates adjacent). *)

val clear : 'a t -> unit
(** Drop everything in flight — what a host crash does to the wire. *)

val in_flight : 'a t -> int

val rng_peek : 'a t -> int64
(** The channel RNG's state, unadvanced — the idle-discipline probe:
    equal before/after a fault-free run proves no draws happened. *)
