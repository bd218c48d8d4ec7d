(** The fabric runtime: topology + simulator + models, wired together.

    The fabric owns the set of active flows and, whenever that set (or
    a limit, fault or configuration) changes, recomputes flow rates
    with {!Fairshare} over the per-(link, direction) capacities.
    Reallocation is {e contention-scoped}: only the connected
    component(s) of flows sharing a resource with the change are
    recomputed — every other flow keeps its rate and its pending
    completion event — so an event costs O(affected), not O(all flows)
    (see "Reallocation cost model" in doc/MODEL.md). Between changes,
    rates are constant and flow progress is integrated lazily, so
    simulated time advances in O(events), not O(time). Completions are
    scheduled from a min-heap of predicted completion times rather
    than a scan over the flow table.

    DDIO coupling: flows marked [llc_target] terminate at their CPU
    socket; the per-socket {!Cache} model converts the aggregate DDIO
    write rate into induced memory-bus traffic (write-back + re-read on
    miss), which competes with explicit flows on the socket's memory
    links. The rate/spill fixed point is resolved by a short damped
    iteration at each reallocation; for contention scoping, every
    [llc_target] flow on a socket is coupled into one component with
    the socket's memory links.

    This module also exports the raw byte counters and utilizations
    that the monitoring layer samples — deliberately: the fabric is
    "the hardware", and {!Ihnet_monitor} may only observe it through
    these counters (at a configured fidelity), never through the
    internal flow table. *)

type t

val create : ?seed:int -> ?warm:bool -> Sim.t -> Ihnet_topology.Topology.t -> t
(** [warm] is the component memo switch (default on): component
    results are memoized against their exact inputs and replayed when
    those inputs recur. [~warm:false] computes every component afresh;
    it is the memo-free reference the differential tests compare
    against. Rates, counters, digests and replay are bit-identical memo
    on or off (MODEL.md §13); only the time spent computing them
    changes. Reallocation runs on the calling domain (see "Reallocation
    pipeline" in doc/MODEL.md). *)

val sim : t -> Sim.t
val topology : t -> Ihnet_topology.Topology.t
val rng : t -> Ihnet_util.Rng.t
val now : t -> Ihnet_util.Units.ns

(** {1 Flows} *)

val start_flow :
  t ->
  tenant:int ->
  ?cls:Flow.cls ->
  ?weight:float ->
  ?floor:float ->
  ?cap:float ->
  ?demand:float ->
  ?payload_bytes:int ->
  ?working_set_pages:int ->
  ?llc_target:bool ->
  ?on_complete:(Flow.t -> unit) ->
  path:Ihnet_topology.Path.t ->
  size:Flow.size ->
  unit ->
  Flow.t
(** Starts a flow and triggers reallocation. [payload_bytes] defaults
    to the host's PCIe MaxPayloadSize; [working_set_pages] (default
    128) drives the IOMMU model. An [llc_target] flow must have a CPU
    socket as one endpoint of its path.
    @raise Invalid_argument on a malformed path or bad parameters. *)

val stop_flow : t -> Flow.t -> unit
(** Idempotent; completed flows are ignored. *)

val set_flow_limits :
  t -> Flow.t -> ?weight:float -> ?floor:float -> ?cap:float -> unit -> unit
(** The arbiter's knob: update guarantees/limits and reallocate. *)

val active_flows : t -> Flow.t list

val find_flow : t -> int -> Flow.t option
(** The active flow with this id, from the flow table: no list is
    built. [None] once the flow completed or was stopped. *)

val flow_count : t -> int

val refresh : t -> unit
(** Integrate flow progress and byte counters up to the current
    simulated time. Counter queries do this implicitly; call it before
    reading [Flow.transferred]/[Flow.remaining] directly. *)

val batch : t -> (unit -> unit) -> unit
(** [batch t f] runs [f] with rate reallocation deferred, then
    reallocates once — one epoch per batch, even when [f] changed
    nothing, which recorded traces rely on to replay. Used by the
    arbiter to push many limit updates as a single enforcement action.
    Nested batches are flattened. *)

(** {1 Event subscription}

    The "software module interception" data source of §3.1-Q1: hooks on
    the I/O control path. Unlike the counters these see every flow's
    identity and boundaries (that is their fidelity advantage), but only
    software-initiated events — induced DDIO traffic and silent faults
    never surface here. *)

type event =
  | Flow_started of Flow.t
  | Flow_completed of Flow.t
  | Flow_stopped of Flow.t
  | Fault_injected of Ihnet_topology.Link.id * Fault.link_fault
      (** Only {e operator-injected} faults are announced (the operator
          knows what they injected); genuinely silent degradations fire
          no event — detecting those is the monitor's job. *)
  | Fault_cleared of Ihnet_topology.Link.id
  | All_faults_cleared
      (** {!clear_all_faults} ran — one reallocation regardless of how
          many links were faulted, so it must be replayed as one
          command, not per-link clears. *)
  | Limits_changed of Flow.t
      (** A flow's weight/floor/cap changed via {!set_flow_limits}. *)
  | Config_changed of Ihnet_topology.Hostconfig.t
      (** Host configuration swapped via {!set_config}. *)
  | Reallocated of int
      (** A reallocation committed; the payload is the new epoch. Fired
          after rates, loads and completion events are consistent, so
          listeners may read any telemetry accessor. *)
  | Batch_started
  | Batch_ended  (** Outermost {!batch} boundaries (nested are flattened). *)
  | Synced
      (** A public counter read advanced the lazy byte integration to
          the current time. Replay re-applies these as {!refresh} so
          integration intervals — and hence float rounding — match the
          recorded run exactly. *)
  | Sensor_fault_injected of Sensorfault.target * Sensorfault.sensor_fault
      (** A telemetry-plane fault was installed. Like link faults these
          are operator actions, so they are announced (and recorded);
          unlike link faults they never reallocate — only what the
          monitor {e reads} changes, never what the fabric {e does}. *)
  | Sensor_fault_cleared of Sensorfault.target

val subscribe : t -> (event -> unit) -> unit
(** Register a listener for all subsequent events. Listeners run
    synchronously in registration order; there is no unsubscribe (wire
    monitors at host setup). *)

val transfer_time :
  t -> path:Ihnet_topology.Path.t -> bytes:float -> Ihnet_util.Units.ns option
(** One-shot what-if: time a [bytes]-sized transfer would take at the
    rate a new flow would currently receive on [path] (without actually
    starting it); [None] if it would get no bandwidth. *)

(** {1 Telemetry surface (what real hardware counters expose)} *)

val effective_capacity : t -> Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> float
(** Link capacity after fault degradation, bytes/s. *)

val link_rate : t -> Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> float
(** Current aggregate allocated rate on the link direction (including
    induced DDIO traffic and protocol overhead), bytes/s. *)

val link_utilization : t -> Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> float
(** [link_rate / effective_capacity], in [\[0,1\]]; 1.0 for a down link
    carrying demand. *)

val link_bytes : t -> Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> float
(** Cumulative bytes moved across the link direction. *)

val tenant_link_bytes :
  t -> Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> tenant:int -> float
(** Per-tenant cumulative bytes (the fine-grained counter real hardware
    mostly lacks — §3.1-Q1; the monitor decides whether it may read
    this). *)

val cls_link_bytes :
  t -> Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> cls:Flow.cls -> float

val tenant_bytes : t -> tenant:int -> float
(** Total bytes moved by a tenant across all links. *)

(** {1 Latency} *)

val path_latency :
  t -> ?payload_bytes:int -> ?working_set_pages:int -> Ihnet_topology.Path.t ->
  Ihnet_util.Units.ns
(** Expected one-way latency of a message on [path] now: per-hop base
    latency inflated by current utilization (plus fault extra delay),
    plus IOMMU translation cost when the path crosses a root complex,
    plus serialization of [payload_bytes] (default 0) at the path
    bottleneck's residual rate. *)

val flow_path_latency : t -> ?payload_bytes:int -> Flow.t -> Ihnet_util.Units.ns
(** Like {!path_latency} for the path of a specific {e live} flow, but
    honouring WFQ delay isolation: a flow with a guaranteed floor is
    served at that rate on every hop, so its queueing delay follows its
    own utilization of the guarantee ([rate/floor]) rather than the
    aggregate link utilization — never worse than the unmanaged
    estimate. This is how the arbiter's bandwidth guarantees also bound
    latency. *)

val probe_loss_prob : t -> Ihnet_topology.Path.t -> float
(** Probability that a probe on [path] is lost to injected faults. *)

(** {1 Always-on latency sketches}

    The continuous percentile plane of §3.1: per-(link, direction)
    {!Ihnet_util.Sketch}es fed with the loaded hop latency of every
    resource a reallocation epoch recommits, plus one end-to-end sketch
    fed with {!flow_path_latency} at each flow completion. Dormant by
    default and free when dormant; when enabled, recording is a pure
    observation of committed state — rates, events, RNG draws and
    recorder digests are byte-identical either way (the [sketch-idle]
    bench subject asserts this). *)

val enable_latency_sketches : t -> unit
(** Turn the latency plane on (normally via
    [Host.wiring.latency_sketches]). Idempotent; there is no off switch
    — the plane is append-only observation state. *)

val latency_sketches_enabled : t -> bool

val link_latency_sketch :
  t -> Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> Ihnet_util.Sketch.t option
(** The live per-resource sketch ([None] when the plane is dormant).
    Callers must treat it as read-only; use {!Ihnet_util.Sketch.copy}
    before merging elsewhere. *)

val flow_latency_sketch : t -> Ihnet_util.Sketch.t option
(** End-to-end latency of completed flows ([None] when dormant). *)

(** {1 DDIO observability} *)

val ddio_write_rate : t -> socket:int -> float
(** Aggregate DDIO (LLC-targeted) write rate into the socket. *)

val ddio_hit_rate : t -> socket:int -> float
val ddio_spill_rate : t -> socket:int -> float
(** Induced memory-bus traffic (bytes/s, both directions combined). *)

(** {1 Faults and configuration} *)

val inject_fault : t -> Ihnet_topology.Link.id -> Fault.link_fault -> unit
val clear_fault : t -> Ihnet_topology.Link.id -> unit
val clear_all_faults : t -> unit
val fault_of : t -> Ihnet_topology.Link.id -> Fault.link_fault

val inject_sensor_fault : t -> Sensorfault.target -> Sensorfault.sensor_fault -> unit
(** Install a telemetry-plane fault (see {!Sensorfault}). Emits
    {!Sensor_fault_injected} but triggers {e no} reallocation: sensor
    faults corrupt readings, not rates, so they are epoch-neutral for
    record/replay digests. *)

val clear_sensor_fault : t -> Sensorfault.target -> unit
val clear_all_sensor_faults : t -> unit

val sensor_fault_of : t -> Sensorfault.target -> Sensorfault.sensor_fault
(** {!Sensorfault.none} when the target is healthy. *)

val sensor_faults : t -> (Sensorfault.target * Sensorfault.sensor_fault) list

val device_sensor_fault : t -> Ihnet_topology.Device.id -> Sensorfault.sensor_fault

val link_sensor_fault : t -> Ihnet_topology.Link.id -> Sensorfault.sensor_fault
(** Merged sensor fault of the link's two endpoint devices — what a
    hardware counter attached to that link suffers. *)

val flap_link :
  t -> Ihnet_topology.Link.id -> Fault.link_fault -> period:Ihnet_util.Units.ns ->
  toggles:int -> unit
(** Oscillate a link: inject [fault] now, then alternate clear/inject
    every [period] until [toggles] transitions have fired (an odd count
    leaves the fault installed, an even count leaves the link clean).
    Each transition emits its {!event}, so listeners — notably the
    remediation supervisor's flap damping — see every toggle. *)

val fail_device : t -> Ihnet_topology.Device.id -> unit
(** Take a device down: every incident link goes to {!Fault.down} in
    one reallocation (flows through it starve; probes are lost). *)

val revive_device : t -> Ihnet_topology.Device.id -> unit
(** Clear the faults {!fail_device} installed. *)

val set_config : t -> Ihnet_topology.Hostconfig.t -> unit
(** Swap the host configuration (e.g. toggle DDIO) and reallocate. *)

val reallocations : t -> int
(** Number of reallocation passes so far (cost model for §3.2-Q3). *)

(** {1 Memo observability} *)

val warm_enabled : t -> bool
(** Whether the component memo is on (see {!create}). *)

val warm_hits : t -> int
(** Memo hits: components replayed from the memo instead of being
    recomputed. *)

val warm_misses : t -> int
(** Memo misses: components that had to be computed. Both counters
    stay 0 when the memo is off. Tests use hits/misses to assert that
    fault, limit and config changes actually invalidate the memo. *)

(** {1 Out-of-band scan exposition}

    The boundary-scan (JTAG-style) view of the fabric, consumed by
    {!Ihnet_record.Scanport}. Every [scan_*] accessor is a {e pure
    read} of committed state: unlike the telemetry accessors above
    ({!link_bytes} &c., which run the lazy byte integration and may
    emit [Synced]), a scan never advances [last_update], never emits an
    event, never draws from the RNG, never bumps completion-heap
    generations and never alters the component memo — so a run scanned
    at every epoch stays bit-identical to a bare run. Mutable arrays
    are returned as copies. *)

val scan_epoch : t -> int
(** Current reallocation epoch (what {!event.Reallocated} carries). *)

val scan_clock : t -> Ihnet_util.Units.ns
(** Simulated now — same value as {!now}, listed here for the scan
    chain's completeness. *)

val scan_last_update : t -> Ihnet_util.Units.ns
(** Time up to which the lazy byte integration has run; byte counters
    below are exact as of this instant. *)

val scan_next_flow_id : t -> int
val scan_rng_state : t -> int64
(** Raw SplitMix64 state, read without advancing the stream. *)

val scan_cache_gen : t -> int
(** Cache-config generation (bumped by {!set_config}). *)

val scan_resources : t -> int
(** Real (link, dir) resource count — the width of the arrays below.
    Resource [r] is link [r/2], forward when [r] is even. *)

val scan_load : t -> float array
(** Per-resource allocated rate (B/s), as committed by the last
    reallocation. *)

val scan_flows_on : t -> int array
(** Per-resource active flow count. *)

val scan_link_bytes : t -> float array
(** Per-resource cumulative bytes as of {!scan_last_update} — the raw
    counters behind {!link_bytes}, without the sync that accessor
    performs. *)

val scan_caps : t -> float array
(** Cached effective capacities (fault-adjusted). *)

val scan_ddio : t -> float array * float array * float array * float array
(** Per-socket [(write, hit, spill_wb, spill_rr)] DDIO state. *)

val scan_tenant_rows : t -> (int * float array) list
(** Per-tenant per-resource cumulative bytes, tenant id ascending
    (tenant 0 is the induced-traffic row). *)

val scan_cls_rows : t -> float array array
(** Per-class per-resource cumulative bytes, class index order
    (payload, monitoring, heartbeat, probe, induced). *)

val scan_flows : t -> Flow.t list
(** Active flows, id ascending — {!active_flows} is already pure. *)

val scan_completion_heap : t -> (Ihnet_util.Units.ns * int * int * bool) list
(** Completion-heap contents in pop order:
    [(due_at, flow_id, stamp, live)]. Lazily-deleted entries (stale
    stamp or stopped flow) appear with [live = false] — the scan sees
    the heap exactly as stored, stale residue included. *)

val scan_memo_keys : t -> (int * int * int) list
(** Component memo occupancy: [(bucket_key, entries, last_hit_epoch)]
    per memo, sorted. Empty when the memo is off — a
    microarchitectural register, legitimately different memo on or
    off. *)

val scan_solver_stats : t -> Fairshare.stats
(** The solver-work ledger, summed over every component compute:
    [Fairshare.allocate_into] calls and DDIO spill iterations skipped at
    the fixed point ({!Fairshare.stats}). Memo hits add nothing, so it
    is also microarchitectural. *)

val step_epoch : t -> bool
(** Single-step the simulation by one reallocation epoch: execute
    queued events until the epoch counter advances, then stop at that
    boundary. [false] when the event queue drained without another
    reallocation. The scan port's freeze/step hook. *)
