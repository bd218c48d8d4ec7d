(** Self-healing remediation supervisor: detect → diagnose → act.

    §3.1's motivating failure is a {e silent} degradation — no error
    counter fires, performance just collapses. Detecting it is the
    monitor's job; this module closes the management loop by acting on
    the diagnosis. Per suspected link it runs a small state machine
    whose actions escalate, each stage bounded by [max_attempts] with
    exponential backoff between attempts:

    + {b re-arbitrate} — re-push floors/caps so the arbiter's
      guarantees are re-asserted against the degraded residual
      capacity (cheap, fixes allocation drift);
    + {b re-place} — migrate affected pipe placements (reservation and
      live flows) onto alternate paths that avoid the suspect link,
      recompiling through the interpreter;
    + {b degrade} — shrink the placement's floor by [degrade_step]
      (never below [min_floor_scale]) and record an explicit
      {!Slo.Degraded} verdict instead of silently violating the
      original guarantee. Floors are restored when the fault clears.

    A case resolves as soon as no placement routed over the link is
    missing its (possibly scaled) promise. Flap damping: when a link
    toggles more than [flap_threshold] times within [flap_window], the
    case holds down for [holddown] instead of thrashing migrations.

    Detection inputs are (a) fabric fault events — operator-injected,
    hence announced — and (b) pluggable {!add_source} detectors
    returning suspect links with confidence scores; the host facade
    wires heartbeat localization in through the latter, keeping this
    library independent of {!Ihnet_monitor}. *)

type stage = Rearbitrate | Replace | Degrade

type status =
  | Suspected  (** Case open, no action taken yet. *)
  | Remediating  (** At least one victim placement, actions in flight. *)
  | Held_down  (** Flap damping engaged; waiting out the oscillation. *)
  | Resolved  (** Every affected placement meets its (scaled) promise. *)
  | Exhausted  (** All stages spent and victims remain. *)

type case = {
  link : Ihnet_topology.Link.id;
  mutable status : status;
  mutable stage : stage;
  mutable attempts : int;  (** Attempts within the current stage. *)
  mutable detected_at : Ihnet_util.Units.ns;
  mutable recovered_at : Ihnet_util.Units.ns option;
  mutable next_due : Ihnet_util.Units.ns;  (** Backoff gate for the next action. *)
  mutable held_until : Ihnet_util.Units.ns;
  mutable transitions : Ihnet_util.Units.ns list;
      (** Recent fault inject/clear timestamps (flap detector input). *)
  mutable degraded_ids : int list;
      (** Placement ids whose floor this case shrank (restored on
          clear). *)
  mutable total_actions : int;
  mutable gate_waits : int;
      (** Consecutive ticks this case has been blocked by the evidence
          gate awaiting corroboration; reset when an action lands. *)
}

type action = {
  at : Ihnet_util.Units.ns;
  action_link : Ihnet_topology.Link.id;
  action_stage : stage;
  detail : string;
  impact : bool;
      (** [true]: the action changed fabric or placement state
          (re-arbitrated, migrated, degraded, restored). [false]: a
          bookkeeping note (suspicion, flap damping, awaiting
          corroboration, rate limiting, exhaustion). False-migration
          accounting counts impactful [Replace]/[Degrade] actions. *)
}

type config = {
  period : Ihnet_util.Units.ns;  (** Supervisor tick period. *)
  max_attempts : int;  (** Per stage, before escalating. *)
  base_backoff : Ihnet_util.Units.ns;
  backoff_factor : float;  (** Delay = base × factor{^ attempts}. *)
  flap_window : Ihnet_util.Units.ns;
  flap_threshold : int;  (** Transitions within the window → hold-down. *)
  holddown : Ihnet_util.Units.ns;
  suspect_score : float;  (** Minimum detector score to open a case. *)
  degrade_step : float;  (** Floor multiplier per degrade action. *)
  min_floor_scale : float;
  use_fault_events : bool;
      (** Open cases from fabric [Fault_injected] events (default).
          Disable to rely purely on {!add_source} detectors — how a
          genuinely silent fault plays out; announced toggles then only
          feed flap damping of already-open cases. *)
  migration_budget : float;
      (** Token-bucket size for [Replace]/[Degrade] actions; each burns
          one token. Bounds migrations per window so even a confidently
          lying corroborated verdict cannot thrash the fabric. *)
  migration_refill : Ihnet_util.Units.ns;
      (** Simulated time to regain one token (linear refill up to the
          budget). *)
}

val default_config : config

type t

val create : ?config:config -> Manager.t -> t
(** Subscribes to the manager's fabric for fault events immediately;
    the periodic loop only runs between {!start} and {!stop}. *)

val add_source : t -> name:string -> (unit -> (Ihnet_topology.Link.id * float) list) -> unit
(** Register a detector polled every tick: returns suspect links with
    confidence scores in [\[0,1\]]. The host wires heartbeat
    localization (and any other monitor verdict) through this. *)

val tail_latency_source :
  Manager.t -> unit -> (Ihnet_topology.Link.id * float) list
(** A ready-made {!add_source} detector for tail-latency SLO intents:
    for every placement carrying an {!Intent.t.p99_bound}, sum the
    observed per-hop p99 of the fabric's always-on latency sketches
    along its path; when the sum breaches the bound, suspect the hop
    contributing the largest p99, with score
    [min 1 ((observed - bound) / bound)]. Returns [[]] while the
    sketch plane is dormant, so it is free to wire unconditionally.
    The host facade installs it when
    {!Ihnet.Host.wiring.latency_sketches} is on. *)

val set_gate :
  t -> (Ihnet_topology.Link.id -> [ `Unknown | `Suspected of float | `Corroborated of float ]) -> unit
(** Install the evidence gate. [Rearbitrate] (cheap, reversible)
    proceeds on any suspicion; [Replace] and [Degrade] are attempted
    only on a [`Corroborated] verdict — otherwise the case waits,
    without consuming attempts or escalating. The gate is a plain
    closure (the host passes {!Ihnet_monitor.Evidence.gate}) so this
    library stays independent of the monitor. Without a gate every
    verdict counts as corroborated — exact pre-gate behaviour. *)

val start : t -> unit
(** Begin the detect → diagnose → act loop (idempotent). *)

val stop : t -> unit
(** Halt the loop; pending ticks self-cancel (generation-stamped). *)

val tick : t -> unit
(** One synchronous supervisor pass (poll sources, step every case) —
    what the loop runs each period; exposed for tests. *)

val cases : t -> case list
val case_for : t -> Ihnet_topology.Link.id -> case option

val status_label : status -> string
(** Stable lowercase name of a {!status} — the scan port serializes
    {!case}s with these, so they are part of the snapshot format, not
    just display strings. *)

val stage_label : stage -> string
(** Stable lowercase name of a {!stage} (same contract). *)

val actions : t -> action list
(** Chronological action log. *)

val actions_count : t -> int

val on_action : t -> (action -> unit) -> unit
(** Register an observer called synchronously for every action the
    supervisor takes, in registration order — the flight recorder's tap
    into the control loop. No unsubscribe. *)

val time_to_detect :
  t -> Ihnet_topology.Link.id -> since:Ihnet_util.Units.ns -> Ihnet_util.Units.ns option
(** Detection latency relative to [since] (the fault injection time);
    [None] if undetected or detected before [since]. *)

val time_to_recover : t -> Ihnet_topology.Link.id -> Ihnet_util.Units.ns option
(** [recovered_at - detected_at] once the case resolved. *)

val pp_status : Format.formatter -> t -> unit
val pp_timeline : Format.formatter -> t -> unit
