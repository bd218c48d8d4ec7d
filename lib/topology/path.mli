(** A concrete route through the intra-host network.

    A path is a device sequence plus, for each hop, the link taken and
    the direction it is traversed in. The scheduler reasons about
    alternative paths (e.g. "several GPU–SSD pathways", §3.2); the
    engine charges a flow against every (link, direction) on its
    path. *)

type hop = { link : Link.t; dir : Link.dir }

type t = {
  src : Device.id;
  dst : Device.id;
  hops : hop list;  (** In traversal order; empty iff [src = dst]. *)
}

val devices : t -> Device.id list
(** All devices visited, [src] first, [dst] last. *)

val links : t -> Link.t list
val hop_count : t -> int

val base_latency : t -> Ihnet_util.Units.ns
(** Sum of link base latencies (the zero-load path latency). *)

val reverse : t -> t
(** The same links from [dst] back to [src], each hop traversed in the
    opposite direction: the route a reply retraces. *)

val concat : t -> t -> t
(** [concat a b] joins two paths end to end.
    @raise Invalid_argument unless [a.dst = b.src]. *)

val well_formed : Topology.t -> t -> bool
(** Hops chain correctly from [src] to [dst]. *)

val pp : Topology.t -> Format.formatter -> t -> unit
(** e.g. ["nic0 -> pciesw0 -> rp0.0 -> socket0"]. *)
