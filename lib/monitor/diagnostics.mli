(** Diagnostic tools: the intra-host ping / traceroute / iperf /
    wireshark the paper asks for (§3.1).

    All tools are safe to run against a loaded fabric; their own
    traffic is [Probe]-class so the overhead is attributable. *)

(** {1 ihping} *)

type ping_report = {
  mutable sent : int;
  mutable lost : int;
  rtts : Ihnet_util.Sketch.t;  (** RTTs of answered probes, ns. *)
}
(** Fields fill in as the simulation executes the scheduled probes. *)

val rtt :
  Ihnet_engine.Fabric.t -> probe_bytes:int -> Ihnet_topology.Path.t -> Ihnet_util.Units.ns
(** Round-trip latency of a [probe_bytes] message under current load:
    {!Ihnet_engine.Fabric.path_latency} along the path, then along
    {!Ihnet_topology.Path.reverse}, each direction at its own
    utilization. *)

val ping :
  Ihnet_engine.Fabric.t ->
  src:string ->
  dst:string ->
  ?count:int ->
  ?interval:Ihnet_util.Units.ns ->
  ?on_done:(ping_report -> unit) ->
  unit ->
  ping_report
(** Schedule [count] (default 10) 64-byte probes [interval] (default
    100 µs) apart; the returned report fills in as the simulation runs
    and [on_done] fires after the last probe. Lost probes (fault loss)
    count in [lost].
    @raise Invalid_argument on unknown devices or no route (the texts
    of {!Ihnet_topology.Routing.route}), [src = dst], [count <= 0] or
    [interval <= 0]. The other probes raise the same for the first
    three. *)

val ping_once : Ihnet_engine.Fabric.t -> src:string -> dst:string -> Ihnet_util.Units.ns option
(** Immediate one-shot RTT under current load; [None] if lost. *)

(** {1 ihtrace} *)

type trace_hop = {
  hop_device : string;  (** Device entered at this hop. *)
  link_kind : string;
  figure1_class : int option;
  base_latency : Ihnet_util.Units.ns;
  loaded_latency : Ihnet_util.Units.ns;  (** Under current utilization. *)
  utilization : float;
}

val trace : Ihnet_engine.Fabric.t -> src:string -> dst:string -> trace_hop list
(** Hop-by-hop decomposition of the current one-way path — the
    intra-host traceroute. *)

(** {1 ihperf} *)

type perf_report = {
  duration : Ihnet_util.Units.ns;
  bytes_moved : float;
  achieved_rate : float;  (** bytes/s. *)
  bottleneck : (Ihnet_topology.Link.id * float) option;
      (** Most utilized link on the path at the end of the run. *)
}

val perf :
  Ihnet_engine.Fabric.t ->
  src:string ->
  dst:string ->
  ?duration:Ihnet_util.Units.ns ->
  ?on_done:(perf_report -> unit) ->
  unit ->
  unit
(** Run an elastic [Probe]-class flow for [duration] (default 10 ms)
    and report the achieved bandwidth — the intra-host iperf.
    @raise Invalid_argument when [duration] is not [> 0]. *)

val perf_now : Ihnet_engine.Fabric.t -> src:string -> dst:string -> float
(** Instantaneous what-if bandwidth between two devices (the rate a new
    elastic flow would get right now), without starting traffic. *)

(** {1 ihdump} *)

type captured_flow = {
  flow_id : int;
  tenant : int;
  cls : string;
  rate : float;
  src_dev : string;
  dst_dev : string;
}

val dump :
  Ihnet_engine.Fabric.t ->
  link:Ihnet_topology.Link.id ->
  ?dir:Ihnet_topology.Link.dir ->
  unit ->
  captured_flow list
(** Flows currently crossing [link] (optionally one direction only),
    largest rate first — the intra-host wireshark. This is a privileged
    hypervisor view: it reads the flow table, not the counters. *)
