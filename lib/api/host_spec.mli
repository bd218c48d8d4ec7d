(** One shared description of "which host to build" for every binary.

    [ihnetctl], [ihnetd], the fault campaign and the benches all used
    to carry their own copy of the preset / topology-file / DDIO /
    IOMMU / MPS plumbing; this module is the single home for
    it. A spec is plain data, so it can be built from CLI flags, sent
    in a daemon hello, or embedded in a test. *)

type t = {
  preset : Ihnet.Host.preset;
  preset_name : string;
      (** Canonical CLI name ("two-socket", "dgx", ...) used in daemon
          hellos; "custom" for a topology-file host. Trace headers use
          the topology's own name instead — the
          {!Ihnet_topology.Builder} preset a replay rebuilds from. *)
  ddio : bool option;  (** [Some false] turns DDIO off; on is the default. *)
  iommu : bool option;
  mps : int option;  (** PCIe MaxPayloadSize override, bytes. *)
  seed : int option;  (** Host RNG seed (default 42). *)
}

val default : t
(** Two-socket host, no overrides. *)

val make :
  ?preset:Ihnet.Host.preset ->
  ?topo_file:string ->
  ?ddio:bool ->
  ?iommu:bool ->
  ?mps:int ->
  ?seed:int ->
  unit ->
  t
(** Build a spec. [topo_file] (a {!Ihnet_topology.Spec} file) wins
    over [preset].
    @raise Failure ["<path>: <error>"] when the topology file cannot
    be read or parsed (callers that want the historical exit code 2
    use {!load_topo_file} directly). *)

val preset_of_name : string -> (Ihnet.Host.preset, string) result
(** ["two-socket"], ["dgx"], ["epyc"] or ["minimal"]. *)

val preset_name : Ihnet.Host.preset -> string
(** Inverse of {!preset_of_name}; custom topologies render as
    ["custom"]. *)

val load_topo_file : string -> (Ihnet_topology.Topology.t, string) result
(** Read and parse a topology spec file. *)

val config : t -> Ihnet_topology.Hostconfig.t
(** The host configuration the overrides produce. *)

val create_host : t -> Ihnet.Host.t
(** Build (and validate) the host — the one construction path every
    binary shares.
    @raise Invalid_argument if a custom topology fails validation. *)

val topology : t -> Ihnet_topology.Topology.t
(** Build just the topology (what [ihnetctl check] inspects): the
    preset's builder with {!config} applied; custom topologies fall
    back to the minimal builder, mirroring the historical [check]
    behavior. *)

val device_id :
  Ihnet_topology.Topology.t -> string -> Ihnet_topology.Device.id
(** Resolve a device by name.
    @raise Failure ["no device <name>"] when absent — the message every
    CLI path has always printed. *)
