(** End-node and fabric devices of the intra-host network.

    The paper names "these fabrics and the end node devices together"
    the intra-host network (§2): CPU sockets, memory controllers and
    DIMMs, the PCIe hierarchy (root complex, root ports, switches), and
    I/O devices (NICs, GPUs, NVMe SSDs, FPGAs, CXL devices). *)

type id = int
(** Dense ids assigned by {!Topology} at insertion. *)

type kind =
  | Cpu_socket of { cores : int }
      (** A CPU package; the hub of its socket's mesh interconnect. *)
  | Memory_controller of { channels : int }
  | Dimm of { channel : int }
  | Root_complex  (** PCIe root complex integrated in a socket. *)
  | Root_port  (** One root port below a root complex. *)
  | Pcie_switch of { ports : int }
  | Nic of { inter_host_gbps : float }
      (** Network adapter; its inter-host port speed is carried here so
          topology builders can attach the matching external link. *)
  | Gpu
  | Nvme_ssd
  | Fpga
  | Cxl_device  (** CXL.mem expander (exposed as remote NUMA memory). *)
  | External_network
      (** The inter-host fabric beyond a NIC — the far endpoint of a
          Figure 1 class (5) link. Lets end-to-end paths traverse all
          five link classes. *)

type t = {
  id : id;
  name : string;  (** Unique human-readable name, e.g. ["nic0"]. *)
  kind : kind;
  socket : int;  (** NUMA socket the device belongs to (0-based). *)
}

val kind_label : kind -> string
(** Short class label, e.g. ["gpu"], ["pcie-switch"]. *)

val is_endpoint : t -> bool
(** True for devices that originate or sink traffic (sockets, DIMMs,
    NICs, GPUs, SSDs, FPGAs, CXL devices); false for pure fabric
    elements (root complex/ports, switches, memory controllers). *)

val is_socket : t -> bool
(** True for CPU sockets ([Cpu_socket]). *)

val is_io_device : t -> bool
(** True for PCIe endpoint I/O devices (NIC, GPU, SSD, FPGA, CXL). *)

val can_transit : t -> bool
(** True for devices traffic can flow {e through}: sockets, memory
    controllers, root complexes/ports, PCIe switches, and NICs (which
    bridge PCIe to the inter-host wire). Leaf endpoints (GPUs, SSDs,
    DIMMs, the external network) terminate paths — a route must never
    use one as an intermediate hop, so intra-host traffic can never
    detour through the external network. *)

val pp : Format.formatter -> t -> unit
