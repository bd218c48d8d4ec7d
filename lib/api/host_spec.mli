(** One shared description of "which host to build" for every binary.

    [ihnetctl], [ihnetd], the fault campaign and the benches build
    their host through {!create_host}: a preset (or a topology read
    from a {!Ihnet_topology.Spec} file) plus DDIO / IOMMU / MPS
    overrides applied on top of that topology's own configuration. A
    spec is plain data, so it can be built from CLI flags, sent in a
    daemon hello, or embedded in a test. *)

type t = {
  preset : Ihnet.Host.preset;
  preset_name : string;
      (** Canonical CLI name ("two-socket", "dgx", ...) used in daemon
          hellos; "custom" for a topology-file host. Trace headers use
          the topology's own name instead — the
          {!Ihnet_topology.Builder} preset a replay rebuilds from. *)
  ddio : bool option;
      (** [Some false] turns DDIO off, [Some true] turns it on (with
          {!Ihnet_topology.Hostconfig.default}'s ways when the base
          configuration has it off); [None] keeps the base setting. *)
  iommu : bool option;  (** Like [ddio], for the IOMMU. *)
  mps : int option;  (** PCIe MaxPayloadSize override, bytes. *)
  seed : int option;  (** Host RNG seed (default 42). *)
}

val default : t
(** Two-socket host, no overrides. *)

val make :
  ?preset:Ihnet.Host.preset ->
  ?ddio:bool ->
  ?iommu:bool ->
  ?mps:int ->
  ?seed:int ->
  unit ->
  t
(** Build a spec. A topology file becomes [~preset:(Custom topo)]
    through {!load_topo_file}. *)

val preset_of_name : string -> (Ihnet.Host.preset, string) result
(** ["two-socket"], ["dgx"], ["epyc"] or ["minimal"]. *)

val preset_name : Ihnet.Host.preset -> string
(** Inverse of {!preset_of_name}; custom topologies render as
    ["custom"]. *)

val load_topo_file : string -> (Ihnet_topology.Topology.t, string) result
(** Read and parse a topology spec file; the error is the parser's
    ["line N: ..."] or the system's message. *)

val config : t -> Ihnet_topology.Hostconfig.t
(** The host configuration: the overrides applied on top of the
    preset's own configuration — {!Ihnet_topology.Hostconfig.default}
    for the built-in presets, the topology's own (a spec file's
    [config] line) for [Custom]. *)

val create_host : t -> Ihnet.Host.t
(** Build (and validate) the host — the one construction path every
    binary shares.
    @raise Invalid_argument if a custom topology fails validation. *)
