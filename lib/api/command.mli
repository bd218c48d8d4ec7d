(** The typed command surface of the control plane.

    Every operation [ihnetctl] can perform — topology inspection, the
    ih* diagnostics, heartbeat/heal runs, scenarios, monitoring,
    planning, latency sketches, out-of-band scans, flow and fault
    mutations, subscriptions and fleet operations — as one variant.
    The CLI builds these from flags; [ihnetd] decodes them off the
    wire; {!Handlers} executes them against a live host either way.

    Commands serialize over {!Ihnet_record.Trace}'s float-exact JSON
    model, so a command round-trips bit-for-bit:
    [of_json (to_json c) = Ok c]. *)

val version : int
(** Wire protocol version, carried in {!Hello} and checked by the
    daemon before anything else. *)

type fidelity = Fid_hardware | Fid_software | Fid_oracle

type stream =
  | S_telemetry  (** Per-epoch flow-count / aggregate-rate samples. *)
  | S_decisions  (** Remediation actions as they are taken. *)
  | S_evidence  (** Evidence-gate scan reports. *)

type fleet_fault = F_crash | F_restart | F_partition | F_heal

type t =
  | Hello of { version : int }
      (** Must be the first command on a connection. *)
  | Topo of { dot : bool }
  | Ping of { src : string; dst : string; count : int; load : bool }
  | Path_trace of { src : string; dst : string; load : bool }
  | Perf of { src : string; dst : string; load : bool }
  | Dump of { a : string; b : string; load : bool }
  | Check
  | Heartbeat of { degrade : (string * string) option }
  | Heal of {
      src : string;
      dst : string;
      gbps : float;
      fault : (string * string) option;
      factor : float;
      silent : bool;
      flap : int option;
      ms : float;
    }
  | Scenario_list
  | Scenario of { name : string; ms : float; protect : float option }
  | Monitor of { ms : float; period_us : float; series : string option; load : bool }
  | Report of { fidelity : fidelity; load : bool }
  | Plan of {
      pipes : (string * string * float) list;
      hoses : (string * float * float) list;
      headroom : float;
    }
  | Latency of { link : bool; ms : float; load : bool }
  | Scan of { ms : float; load : bool; step : int option; snapshot : bool }
  | Run_for of { ms : float }
  | Flow_start of { tenant : int; src : string; dst : string; gbps : float option }
  | Flow_stop of { flow : int }
  | Submit of Ihnet_manager.Intent.t
  | Fault_inject of { a : string; b : string; factor : float; extra_us : float; loss : float }
  | Fault_clear of { a : string; b : string }
  | Faults_clear_all
  | Subscribe of stream
  | Stats
  | Shutdown
  | Fleet_spawn of { name : string; preset : string }
  | Fleet_submit of Ihnet_manager.Intent.t
  | Fleet_run of { rounds : int }
  | Fleet_status of { decisions : bool }
  | Fleet_fault of { host : string; what : fleet_fault }
  | Fleet_loss of { host : string; loss : float }
      (** Drop probability on both directions of the host's control
          channels. *)

val batchable : t -> bool
(** Commands the daemon may group into one reallocation epoch
    ({!Ihnet_engine.Fabric.batch}): flow starts/stops and fault
    mutations. Admission ([Submit]) is excluded — it must observe the
    rates its predecessors produced. *)

val to_json : t -> Ihnet_record.Trace.json
val of_json : Ihnet_record.Trace.json -> (t, string) result
