(** Transfer-trace record and replay.

    The monitor's [ihdump] and the experiment harness can persist what
    happened on the fabric and replay it later against a different
    configuration (e.g. the same trace with and without the resource
    manager) — the standard methodology for apples-to-apples
    comparisons. *)

type event = {
  at : Ihnet_util.Units.ns;  (** Arrival time of the transfer. *)
  src : string;  (** Source device name. *)
  dst : string;  (** Destination device name. *)
  bytes : float;
  tenant : int;
}

type t

val empty : unit -> t
val add : t -> event -> unit
(** Events may be added in any order; replay sorts by time. *)

val length : t -> int
val events : t -> event list
(** In time order. *)

val to_csv : t -> string
(** Header [at_ns,src,dst,bytes,tenant] then one line per event. *)

val of_csv : string -> (t, string) result
(** Parse {!to_csv} output; reports the first bad line. *)

type replay_stats = {
  mutable completed : int;
  mutable total_bytes : float;
  durations : Ihnet_util.Sketch.t;
}

val capture : Ihnet_engine.Fabric.t -> t
(** Subscribe to the fabric's event stream and record every finite
    payload flow as it starts (software interception at work). The
    returned trace fills in as the simulation runs; timestamps are
    relative to the capture start. Unbounded flows and monitor traffic
    are skipped — a trace replays discrete transfers. *)

val replay : Ihnet_engine.Fabric.t -> t -> replay_stats
(** Schedule every event as a finite flow at its timestamp (relative to
    the current simulated time). Returns live statistics that fill in
    as the simulation runs.
    @raise Invalid_argument if an event names an unknown device. *)
