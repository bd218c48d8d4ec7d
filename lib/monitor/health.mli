(** Operator health report: one structured snapshot of the intra-host
    network's state, assembled from counters.

    This is the "centralized monitoring" view of §3.1 — the summary a
    network-state service would collect periodically from each host:
    congested links, top talkers, DDIO pressure, fault suspicion. All
    data flows through a {!Counter.t}, so the report is only as
    informative as the counter fidelity allows (top talkers are empty
    under hardware fidelity). *)

type congested_link = {
  link : Ihnet_topology.Link.id;
  dir : Ihnet_topology.Link.dir;
  label : string;  (** e.g. ["pcie-gen4 x16 rp0.0->pciesw0"]. *)
  utilization : float;
}

type talker = { tenant : int; rate : float (** bytes/s, summed over links. *) }

type socket_cache = { socket : int; hit_rate : float option; write_rate : float }

type t = {
  at : Ihnet_util.Units.ns;
  host : string;
  congested : congested_link list;  (** Above the threshold, worst first. *)
  top_talkers : talker list;  (** Largest first; [] under hardware fidelity. *)
  ddio : socket_cache list;
  monitoring_overhead : float;
      (** Bytes/s currently consumed by Monitoring+Probe traffic. *)
  tenant_fairness : float;
      (** Jain index over the top talkers' rates; [nan] with fewer than
          two visible tenants. *)
}

val collect : Counter.t -> ?tenants:int list -> unit -> t
(** Take a snapshot now. A link direction at 80% utilization or more
    is congested; per-tenant rates are measured over 1 ms by
    differencing byte counters — the call advances the simulation by
    that window. *)

val pp : Format.formatter -> t -> unit
(** Multi-line, operator-facing rendering. *)
