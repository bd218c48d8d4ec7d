(** Canned server topologies.

    Capacities and basic latencies default to the mid-points of
    Figure 1's ranges for commodity hardware (Intel Cascade Lake / AMD
    EPYC CPUs, PCIe 4.0):

    - inter-socket (1): 40 GB/s per direction, 150 ns;
    - intra-socket mesh (2): 60–100 GB/s segments, 10–40 ns;
    - memory channel (2): 25.6 GB/s (DDR4-3200), 60 ns;
    - PCIe gen4 x16 hop (3)/(4): ≈31.5 GB/s raw, 100 ns;
    - inter-host (5): 25 GB/s (200 GbE), 1.5 µs. *)

val two_socket_server : ?config:Hostconfig.t -> unit -> Topology.t
(** The example topology of Figure 1. Two sockets; per socket: two
    memory controllers with three DDR channels each, one root complex
    with two root ports. Socket 0: rp0.0 → switch ("pciesw0") → nic0 +
    gpu0 + ssd0; rp0.1 → nic1 (direct). Socket 1 mirrors with gpu1,
    ssd1, nic2. All NICs link to the external network device "ext". *)

val dgx_like : ?config:Hostconfig.t -> unit -> Topology.t
(** NVIDIA-DGX-style: 2 sockets × 2 root ports, 4 PCIe switches, each
    switch pairing 2 GPUs with 2 NICs — 8 GPUs + 8 200G NICs, the §1
    example of a server whose intra-host network rivals a rack. *)

val epyc_like : ?config:Hostconfig.t -> unit -> Topology.t
(** AMD-EPYC-style: 2 sockets, 4 memory controllers × 2 channels per
    socket, 4 root ports per socket with direct-attached devices (no
    switches) — a wider, flatter PCIe fabric. *)

val minimal : ?config:Hostconfig.t -> unit -> Topology.t
(** Smallest useful host: one socket, one memory controller/DIMM, one
    root port, one NIC, external network. For unit tests. *)

(** {1 Low-level assembly}

    The pieces the canned builders are made of, exported for {!Spec}
    and for hand-built topologies. All use the Figure 1 default
    capacities/latencies. *)

val add_socket :
  Topology.t -> idx:int -> ?cores:int -> mem_controllers:int -> channels_per_mc:int -> unit ->
  Device.t
(** Socket [socket<idx>] with its memory controllers, channels and
    DIMMs (named [mc<idx>.<m>], [dimm<idx>.<m>.<c>]). No root
    complex. *)

val add_root_complex : Topology.t -> socket:Device.t -> Device.t
(** [rc<idx>] on the socket's mesh. One per socket. *)

val add_root_port : Topology.t -> socket:int -> port:int -> Device.t
(** [rp<socket>.<port>] below [rc<socket>], created idempotently.
    @raise Invalid_argument when the socket has no root complex. *)

val link_inter_socket : Topology.t -> Device.t -> Device.t -> unit

val attach_pcie :
  Topology.t -> parent:Device.id -> child:Device.id -> ?gen:Pcie.gen -> ?lanes:int -> unit -> unit
(** A PCIe link (default gen4 x16) with the standard hop latency. *)

val link_inter_host : Topology.t -> nic:Device.t -> gbps:float -> unit
(** NIC ↔ external network at the port speed. *)

val add_cxl_expander : Topology.t -> name:string -> socket:int -> Device.t
(** Attach a CXL.mem expander below the socket's root complex over a
    CXL gen5 x8 link (32 GB/s, 25 ns). With the default mesh/memory
    latencies this puts device → host-DRAM at 150 ns one-way — the
    figure the paper quotes for CXL ("a latency of ~150ns from device
    to host memory", §2 citing [49]).
    @raise Invalid_argument if the socket has no root complex. *)

val two_socket_with_cxl : ?config:Hostconfig.t -> unit -> Topology.t
(** {!two_socket_server} plus a CXL expander ("cxl0") on socket 0. *)

val scaled :
  ?config:Hostconfig.t ->
  sockets:int ->
  switches_per_socket:int ->
  devices_per_switch:int ->
  unit ->
  Topology.t
(** Parametric family for scaling studies (E10): [sockets] sockets in a
    chain, each with [switches_per_socket] switches below one root
    complex and [devices_per_switch] endpoint devices (NIC/GPU/SSD
    round-robin) per switch.
    @raise Invalid_argument unless [sockets > 0],
    [switches_per_socket >= 0] and [devices_per_switch >= 0], naming
    the first field that is not. *)
