(** Load-dependent latency model.

    Figure 1's "basic latency" numbers are zero-load figures; under
    congestion each hop adds queueing delay. We use the standard fluid
    approximation: a hop at utilization [u] inflates its base latency by
    [1 + beta · u/(1-u)], capped — the M/M/1-shaped knee that
    measurement studies of PCIe/memory fabrics report (latency roughly
    flat until ~70% load, then a sharp rise). *)

val max_inflation : float
(** Latency inflation ceiling (100×): models bounded on-device queues —
    beyond this, loss/backpressure rather than delay. *)

val hop_latency :
  base:Ihnet_util.Units.ns ->
  utilization:float ->
  ?extra:Ihnet_util.Units.ns ->
  unit ->
  Ihnet_util.Units.ns
(** [hop_latency ~base ~utilization ()] for [utilization] in [\[0,1\]]
    (values out of range are clamped). [extra] is fault-injected added
    delay, applied before inflation (a degraded component is slow even
    when idle). *)

val stalled : Ihnet_util.Units.ns
(** Serialization-time ceiling (10^12 ns = 1000 s): what a fully
    stalled transfer reports instead of [infinity], so fault-degraded
    (zero-rate) links can never inject non-finite durations into
    workload latency sketches. *)

val serialization : bytes:float -> rate:float -> Ihnet_util.Units.ns
(** Time to push [bytes] at [rate] bytes/s. [infinity] rate gives 0; a
    zero, negative or NaN rate — a link degraded to nothing — gives
    {!stalled} rather than [infinity], and finite results are capped at
    {!stalled}. *)
