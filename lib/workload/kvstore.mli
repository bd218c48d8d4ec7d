(** Remote key-value store: the paper's latency-sensitive victim.

    §2: "a remote key-value store client and a machine learning
    application may be co-located on the same host. ... the traffic of
    the remote key-value store application may traverse the same PCIe
    root port and the memory bus and therefore suffer from high latency
    and poor application performance."

    Clients sit beyond the NIC ([ext]); each request crosses inter-host
    → NIC → PCIe → (LLC or DRAM) and back. The request stream is fluid
    (one rate-limited flow per direction); request {e latency} is
    sampled on a Poisson subsample of requests from the live
    load-dependent path latency, plus interrupt moderation and server
    think time. *)

type config = {
  tenant : int;
  nic : string;  (** Device name of the serving NIC. *)
  target : [ `Llc | `Dimm of string ];
      (** Where request payloads land: LLC via DDIO, or a DIMM. *)
  request_rate : float;  (** Offered load, requests/s. *)
  request_bytes : float;  (** Wire size of a request (client→server). *)
  response_bytes : float;  (** Wire size of a response. *)
  think_time : Ihnet_util.Units.ns;  (** Server-side processing. *)
  sample_rate : float;  (** Latency samples/s (Poisson). *)
}

val default_config : tenant:int -> nic:string -> config
(** 100 kreq/s of 512 B requests / 1024 B responses, LLC-targeted,
    2 µs think time, 20 k latency samples/s. *)

type t

val start : Ihnet_engine.Fabric.t -> ?rng:Ihnet_util.Rng.t -> config -> t
(** An [`Llc] store writes into the NIC's home socket
    ({!Ihnet_topology.Topology.home_socket}).
    @raise Invalid_argument ["no device NAME"] when the NIC or DIMM
    does not exist, or naming the field unless [request_rate > 0] and
    [sample_rate > 0]. *)

val stop : t -> unit

val latencies : t -> Ihnet_util.Sketch.t
(** End-to-end request latencies (ns) sampled so far. *)

val offered_rate : t -> float
(** Offered request rate (requests/s). *)

val achieved_rate : t -> float
(** Requests/s actually sustainable at current fabric allocation
    (min of both directions' bandwidth over the per-request bytes). *)
