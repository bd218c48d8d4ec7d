(** Deterministic replay: re-execute a recorded trace against a fresh
    host and check it epoch-by-epoch.

    The replay engine rebuilds the topology from the header's preset
    name and configuration, creates a bare simulator + fabric (no
    monitors, no manager — every externally visible consequence of
    those is already in the command stream), schedules each recorded
    command at its recorded timestamp in file order (equal-time events
    keep file order by the simulator's FIFO tie-break), and maps
    recorded flow ids to replayed flows. While running it compares, in
    order: every recorded state digest against a freshly computed one,
    and every recorded flow completion (id, time, bytes) against the
    replayed completion stream. All comparisons are exact — the fluid
    model is deterministic, so any drift is a real divergence.

    Known limitation: if an internally scheduled completion landed at
    {e exactly} the same float timestamp as an external command, the
    FIFO tie-break may order them differently in replay than in the
    recorded run (commands are pre-scheduled, completions arise
    dynamically). Equal-time pairs commute for state purposes unless
    the command reads the completing flow; in practice the campaign and
    soak workloads never hit this. *)

type divergence = {
  at : float;
  epoch : int;
  kind : string;
  detail : string;
  register : string option;
      (** First divergent scan register (path and both values), filled
          when a digest mismatch could be drilled down against a scan
          reference (see {!scan_reference} and [run]'s [reference]).
          [None] for non-digest divergences or when no reference
          snapshot covers the divergent epoch. *)
}

type report = {
  ops : int;  (** Commands applied. *)
  digests_checked : int;
  completions_checked : int;
  divergences : int;
  first_divergence : divergence option;
  invariant_failures : string list;
  final_at : float;
}

val run :
  ?setup:(Ihnet_engine.Sim.t -> Ihnet_engine.Fabric.t -> unit) ->
  ?perturb:float * (Ihnet_engine.Fabric.t -> Ihnet_engine.Flow.t list -> unit) ->
  ?reference:(int * Scanport.snapshot) list ->
  Trace.t ->
  (report, string) result
(** Replay a parsed trace. [setup] runs on the fresh host before any
    command (tests use it to attach observers). [perturb] schedules a
    deliberate mutation at the given time — the callback receives the
    fabric and the currently running replayed flows — to verify that
    divergence detection actually fires. [reference] is a
    clean-run scan chain from {!scan_reference}: when a digest
    mismatch occurs at an epoch the reference covers, the replay scans
    its own fabric out of band, diffs the two snapshots, and fills
    {!divergence.register} — escalating the report from "first bad
    epoch" to "first bad register path". [Error] means the trace could
    not be replayed at all (unknown preset, malformed header);
    divergences during a well-formed replay land in the report. *)

val scan_reference :
  Trace.t -> ((int * Scanport.snapshot) list, string) result
(** Replay the trace cleanly and capture a {!Scanport} snapshot at
    every digest point, keyed by digest epoch (the final digest under
    key [-1]) — the reference chain [run]'s [reference] diffs against.
    Scans are pure reads, so the collecting replay is bit-identical to
    a bare one. *)

val ok : report -> bool
(** Zero divergences and no invariant failures. *)

val check_invariants : ?manager:Ihnet_manager.Manager.t -> Ihnet_engine.Fabric.t -> string list
(** Structural health of a fabric, checked at every digest point during
    replay and exposed for tests: no link loaded beyond its effective
    capacity (small fluid-rounding slack), every bounded running flow
    conserves bytes ([transferred + remaining = size]), the completion
    heap holds one key for each running bounded flow with a positive
    rate and no other, and — when a manager is given — every installed
    floor belongs to a running flow. *)

val pp_report : Format.formatter -> report -> unit
