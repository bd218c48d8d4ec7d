(** Traffic generators: reusable arrival/size processes that drive the
    fabric. All randomness comes from a caller-provided {!Ihnet_util.Rng.t}
    stream, so scenarios are reproducible. *)

module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow

type size_dist =
  | Fixed of float  (** Every transfer has this many bytes. *)
  | Uniform of float * float
  | Pareto of { alpha : float; x_min : float }
      (** Heavy-tailed transfer sizes (datacenter flow-size mix). *)

val draw_size : Ihnet_util.Rng.t -> size_dist -> float

type stream
(** A running generator; stop it to cease new arrivals. *)

val poisson_transfers :
  Fabric.t ->
  rng:Ihnet_util.Rng.t ->
  tenant:int ->
  ?llc_target:bool ->
  rate_per_s:float ->
  size:size_dist ->
  path:Ihnet_topology.Path.t ->
  ?on_transfer:(bytes:float -> duration:Ihnet_util.Units.ns -> unit) ->
  unit ->
  stream
(** Transfers of random size arrive with exponential inter-arrival
    times (mean [1/rate_per_s] seconds); each becomes a finite
    [Payload]-class flow on [path]. [on_transfer] fires at each completion with the measured
    duration.
    @raise Invalid_argument unless [rate_per_s] is finite and [> 0.]. *)

val constant_stream :
  Fabric.t ->
  tenant:int ->
  rate:float ->
  path:Ihnet_topology.Path.t ->
  unit ->
  stream
(** An unbounded [Payload]-class flow whose source offers exactly
    [rate] bytes/s.
    @raise Invalid_argument unless [rate > 0.]. *)

val on_off_stream :
  Fabric.t ->
  tenant:int ->
  rate:float ->
  period:Ihnet_util.Units.ns ->
  duty:float ->
  path:Ihnet_topology.Path.t ->
  unit ->
  stream
(** Bursty [Payload]-class source: offers [rate] for [duty × period],
    then idles.
    @raise Invalid_argument unless [duty] is in (0,1], [period > 0.]
    and [rate > 0.]. *)

val stop : stream -> unit
(** Stop new arrivals and any active flow of this stream. Idempotent. *)

val transferred_bytes : stream -> float
(** Total goodput moved by the stream's flows so far. *)

val current_rate : stream -> float
(** Allocated rate of the stream's live flow(s) right now. *)
