(** The performance-target interpreter (§3.2).

    Compiles an {!Intent.t} into low-level {e requirements}: concrete
    endpoint pairs with rates and candidate paths. "The interpreter
    needs to generate the requirements in a holistic way, enabling
    different components to collaboratively provide end-to-end
    allocation" — concretely, a 20 Gb/s pipe between NIC and GPU
    becomes a 2.5 GB/s reservation on every hop of a chosen NIC–GPU
    path: PCIe links, root complex segment, and (for memory targets)
    the memory bus. *)

type requirement = {
  tenant : int;
  kind : Placement.kind;
  rate : float;
  src : Ihnet_topology.Device.id;
  dst : Ihnet_topology.Device.id;
  candidates : Ihnet_topology.Path.t list;
      (** Alternative pathways, best (shortest) first; the scheduler
          picks one. Hose requirements have exactly one candidate (the
          endpoint's uplink to its home socket). *)
  work_conserving : bool;
  latency_bound : Ihnet_util.Units.ns option;
  p99_bound : Ihnet_util.Units.ns option;
}

val compile : Ihnet_topology.Topology.t -> Intent.t -> (requirement list, Mgr_error.t) result
(** A pipe gets at most 4 candidate paths, shortest first. Fails on
    unknown device names ({!Mgr_error.Unknown_device}), unreachable
    pairs ({!Mgr_error.No_path}/[No_uplink]/[No_downlink]), or invalid
    intents ({!Mgr_error.Invalid_intent}). A [latency_bound] or
    [p99_bound] drops candidate paths whose base latency exceeds the
    tighter of the two — a path slower than the bound at zero load can
    never meet it at the tail — and fails if none survives. *)
