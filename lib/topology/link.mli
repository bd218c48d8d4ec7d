(** Links (fabric segments) of the intra-host network.

    Link classes follow Figure 1 of the paper:
    - (1) inter-socket connect (QPI/UPI/Infinity): 20–72 GB/s, 130–220 ns
    - (2) intra-socket connect (core mesh, memory channels): 100–200
      GB/s aggregate, 2–110 ns
    - (3) PCIe switch upstream link (x16): ~256 Gb/s, 30–120 ns
    - (4) PCIe switch downstream link (x16): ~256 Gb/s, 30–120 ns
    - (5) inter-host network: ~200 Gb/s, < 2 µs

    All links are full duplex: each direction has independent capacity
    (matching PCIe/UPI/DDR behaviour at flow granularity). *)

type id = int

type kind =
  | Inter_socket  (** Figure 1 class (1). *)
  | Intra_socket  (** Class (2): on-die mesh segment (socket ↔ memory
                      controller, socket ↔ root complex). *)
  | Memory_channel  (** Class (2): memory controller ↔ DIMM channel. *)
  | Pcie of Pcie.t  (** Classes (3)/(4): any PCIe hop. *)
  | Cxl of Pcie.t
      (** A CXL link (rides the PCIe PHY of the given gen/lanes). Not a
          Figure 1 class — the paper discusses CXL as the emerging
          alternative: coherent, flit-based, with far lower protocol
          latency than PCIe DMA (§2, §4, citing [49]). *)
  | Inter_host  (** Class (5): NIC ↔ external network. *)

type t = {
  id : id;
  kind : kind;
  a : Device.id;  (** One endpoint device. *)
  b : Device.id;  (** The other endpoint. *)
  capacity : Ihnet_util.Units.bytes_per_s;  (** Per direction. *)
  base_latency : Ihnet_util.Units.ns;
      (** Propagation + component processing delay at zero load,
          including the downstream component's processing (e.g. a PCIe
          switch hop), as in Figure 1's "basic latency". *)
}

type dir = Fwd | Rev
(** Traversal direction: [Fwd] is [a → b]. Each direction is an
    independent capacity resource. *)

val figure1_class : t -> int option
(** The Figure 1 class number (1–5) of this link, when it has one.
    [Intra_socket] and [Memory_channel] are both class 2; a PCIe link
    is class 3 or 4 depending on position, which the topology decides —
    here both map to [Some 3]. *)

val kind_label : kind -> string
val opposite : dir -> dir

val dir_label : dir -> string
(** ["fwd"] or ["rev"]: the direction's name in series names, scan
    registers and traces. *)

val pp : Format.formatter -> t -> unit
