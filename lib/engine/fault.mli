(** Fault injection.

    The §3.1 motivating case: "a hardware failure occurring on the PCIe
    switch may silently cause the connected PCIe device to suffer
    performance degradation" — silent meaning no error counter fires.
    Faults here change link behaviour (capacity factor, added latency,
    loss) without any explicit signal; only their performance effects
    are observable, which is exactly what the monitor must detect. *)

type link_fault = {
  capacity_factor : float;  (** Multiplies link capacity; 1.0 healthy,
                                0.0 down. In [\[0,1\]]. *)
  extra_latency : Ihnet_util.Units.ns;  (** Added per-hop delay. *)
  loss_prob : float;  (** Probability a probe/heartbeat is lost. *)
}

type t

val create : unit -> t
val healthy : link_fault

val inject : t -> Ihnet_topology.Link.id -> link_fault -> unit
(** Install (or replace) a link's fault.
    @raise Invalid_argument naming the field when [capacity_factor] or
    [loss_prob] is outside [\[0,1\]] or [extra_latency] is negative
    (NaN included). *)

val clear : t -> Ihnet_topology.Link.id -> unit
val clear_all : t -> unit
val get : t -> Ihnet_topology.Link.id -> link_fault

val degrade : capacity_factor:float -> ?extra_latency:Ihnet_util.Units.ns -> unit -> link_fault
(** Silent degradation: reduced capacity, optional extra delay, no
    loss. *)

val down : link_fault
(** Complete failure: zero capacity, all probes lost. *)

val describe : link_fault -> string
(** Compact human-readable parameter list for logs and CLIs, e.g.
    ["capacity x0.05, +1000 ns latency"] or ["loss 10%"]; ["no-op"]
    for a fault that changes nothing. *)
