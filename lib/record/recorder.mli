(** The flight recorder: always-on capture of everything needed to
    re-execute a fabric's run bit-for-bit.

    Attach to a {e fresh} host (no flows started yet); every external
    mutation then crossing the fabric's API — flow start/stop, limit
    changes, fault injection/clear, configuration swaps, batch
    boundaries and observation-driven counter syncs — streams to the
    sink as one trace line, interleaved with completion annotations and
    a state digest every [digest_every]-th reallocation epoch.
    {!Replay.run} re-executes the command stream against a rebuilt host
    and checks the digests in order.

    Overhead: when nothing subscribes to the fabric, the recorder hooks
    cost a single list-emptiness check per mutation — recording off is
    free. When recording, cost is O(serialized line) per fabric event,
    nothing per simulator event, and no extra simulator events: digests
    piggyback on reallocations. *)

type t

val attach :
  ?digest_every:int ->
  ?label:string ->
  ?preset:string ->
  ?seed:int ->
  sink:(Trace.line -> unit) ->
  Ihnet_engine.Fabric.t ->
  t
(** Start recording. [digest_every] (default 32) sets the digest
    cadence in reallocation epochs; [preset] defaults to the topology's
    name (it must name a {!Ihnet_topology.Builder} preset for the trace
    to be replayable); [seed]/[label] are provenance.
    @raise Invalid_argument if the fabric already has active flows. *)

val observe_remediation : t -> Ihnet_manager.Remediation.t -> unit
(** Also capture every remediation action as an annotation line. *)

val digest : ?id_of:(Ihnet_engine.Flow.t -> int) -> at:float -> epoch:int -> Ihnet_engine.Fabric.t -> Trace.digest
(** Fingerprint the fabric's current state. [id_of] maps flows to the
    id space the digest is keyed on (replay uses the recorded run's
    ids); defaults to the fabric's own. *)

val stop : t -> unit
(** Write the final digest line and detach. Idempotent. *)

val lines : t -> int
(** Trace lines written so far. *)

val buffer_sink : Buffer.t -> Trace.line -> unit
(** Convenience sink: append JSON lines to a buffer. *)

val channel_sink : out_channel -> Trace.line -> unit
