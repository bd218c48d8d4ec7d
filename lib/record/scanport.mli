(** Out-of-band scan port: freeze, inspect, single-step and diff a
    live fabric with provably zero impact.

    The boundary-scan idea from JTAG, applied to the intra-host
    fabric: a side-band TAP that reads every interesting register —
    rate tables, byte counters, DDIO state, flow and completion-heap
    internals, memo and solver-work counters, remediation state machines,
    evidence windows, latency-sketch planes — without going through
    the normal (telemetry) bus. Where a replay divergence names the
    first bad {e epoch}, diffing two scan snapshots names the first
    bad {e register path}.

    {b The zero-impact guarantee.} {!capture} is built exclusively on
    the [scan_*] exposition ({!Ihnet_engine.Fabric}, §scan): it never
    runs the lazy byte integration, never emits a fabric event, never
    draws from the RNG, never bumps heap generations and never alters
    the component memo. A run scanned at every epoch is bit-identical —
    digests, goldens, replay fingerprints — to a bare run; the
    [scanport-idle] bench subject asserts exactly that and CI gates
    it.

    {b Arch vs micro registers.} Registers are tagged:
    [`Arch] registers are part of the determinism contract — equal
    with the component memo on or off.
    [`Micro] registers (memo occupancy, memo hit/miss and solver-work
    counters) describe how the answer was produced and legitimately
    differ memo on vs off; they are excluded from {!val-digest} and
    from the default {!diff}. *)

(** {1 Scan records} *)

type value =
  | Int of int
  | Float of float  (** Compared and digested by raw IEEE-754 bits. *)
  | Hash of int64
  | Flag of bool
  | Text of string

type kind = [ `Arch | `Micro ]

type reg = { rpath : string; rvalue : value; rkind : kind }
(** One scan-chain register: a hierarchical slash path (e.g.
    [link[3]/fwd/rate], [flow[17]/remaining], [rem/link[5]/stage])
    and its typed value. *)

type snapshot = {
  s_version : int;
  s_at : Ihnet_util.Units.ns;  (** Simulated clock at capture. *)
  s_epoch : int;  (** Reallocation epoch at capture. *)
  s_regs : reg list;  (** Canonical scan-chain order. *)
  s_digest : int64;  (** FNV-1a over the [`Arch] registers. *)
}

val version : int

val capture :
  ?remediation:Ihnet_manager.Remediation.t ->
  ?evidence:Ihnet_monitor.Evidence.t ->
  Ihnet_engine.Fabric.t ->
  snapshot
(** Dump the scan chain. Pure read (see the zero-impact guarantee
    above); safe to call at any event boundary, including from a
    fabric event listener. *)

val digest : snapshot -> int64
(** [s_digest] — FNV-1a chained over every [`Arch] register's path and
    value bits, in chain order. Equal digests mean bit-identical
    architectural state. *)

(** {1 Digest-only read}

    {!capture} and {!summary} are one walk over the scan chain with
    two sinks. [capture] renders every register's path and keeps the
    list; [summary] streams the same path bytes and value bits into
    the digest as the walk hands them over, so it renders no path,
    builds no register list and allocates no int64 per byte. Use it
    wherever only the digest is read (the daemon's [Scan] reply and
    its [--step] boundaries, fleet digests); keep [capture] for
    snapshots, diffs and replay drill-down. *)

type summary = {
  sm_epoch : int;  (** [s_epoch] of the matching capture. *)
  sm_regs : int;  (** [List.length s_regs]: arch and micro registers. *)
  sm_digest : int64;  (** [s_digest], bit for bit. *)
}

val summary :
  ?remediation:Ihnet_manager.Remediation.t ->
  ?evidence:Ihnet_monitor.Evidence.t ->
  Ihnet_engine.Fabric.t ->
  summary
(** What {!capture} with the same arguments would report as its epoch,
    register count and digest, at a fraction of its cost. A pure read,
    under the same zero-impact guarantee. *)

val find : snapshot -> string -> value option
(** Look up one register by exact path. *)

val render_value : value -> string
(** Exact textual form (floats at 17 significant digits). *)

(** {1 Codec}

    A snapshot serializes as a single JSON object using {!Trace}'s
    float-exact JSON model, so every register round-trips bit-for-bit:
    [of_json (to_json s) = s]. *)

val to_json : snapshot -> Trace.json
val of_json : Trace.json -> snapshot
(** @raise Trace.Parse_error on malformed or wrong-version input. *)

val save : string -> snapshot -> unit
val load : string -> (snapshot, string) result

(** {1 Diff} *)

type mismatch = {
  d_path : string;  (** First divergent register, chain order. *)
  d_left : string;  (** Rendered value, or ["<absent>"]. *)
  d_right : string;
  d_total : int;  (** Total differing registers at the compared kind. *)
}

val diff : ?scope:[ `Arch | `All ] -> snapshot -> snapshot -> mismatch option
(** First divergent register between two snapshots, or [None] when
    every compared register matches exactly (floats by bits). The
    default scope [`Arch] compares only contract registers, so a
    memo-on and a memo-off snapshot of the same run diff clean; [`All] includes
    the microarchitectural ones. Registers present on one side only
    count as divergent ([d_left]/[d_right] = ["<absent>"]). *)

val pp_mismatch : Format.formatter -> mismatch -> unit

(** {1 Freeze and single-step}

    Freezing is cooperative: the simulator only advances when driven,
    so between events a fabric is always at a committed epoch
    boundary. A {!freeze} takes ownership of the drive loop — while it
    is held, nothing advances except through {!step}, which executes
    queued events one at a time until the epoch counter moves. *)

type freeze

val freeze : Ihnet_engine.Fabric.t -> freeze
(** Take ownership at the current epoch boundary. The caller must not
    run the simulator through other means until {!thaw}. *)

val step : freeze -> int -> int
(** [step f n] advances at most [n] reallocation epochs, returning how
    many actually ran (fewer when the event queue drains).
    @raise Invalid_argument after {!thaw}. *)

val epochs_stepped : freeze -> int
(** Total epochs advanced through this freeze. *)

val thaw : freeze -> unit
(** Release the freeze (idempotent); further {!step}s are refused. *)
