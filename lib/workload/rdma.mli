(** RDMA traffic models.

    §2 cites Collie [31]: "an RDMA loopback traffic can exhaust the
    PCIe bandwidth and causes the application to suffer from PCIe
    congestion". A loopback transfer makes the NIC DMA-read the message
    from host memory and DMA-write it straight back, doubling the PCIe
    cost per useful byte while never touching the wire. *)

type loopback

val start_loopback :
  Ihnet_engine.Fabric.t -> tenant:int -> nic:string -> ?target:string -> unit -> loopback
(** Elastic loopback aggressor on [nic]: one DMA-read stream (memory →
    NIC) plus one DMA-write stream (NIC → memory). [target] is the
    memory endpoint device (default: the NIC's home socket,
    {!Ihnet_topology.Topology.home_socket}, i.e. DDIO).
    @raise Invalid_argument ["no device NAME"] on an unknown device. *)

val stop_loopback : loopback -> unit

val loopback_rate : loopback -> float
(** Aggregate PCIe goodput the aggressor currently holds, bytes/s. *)

(** {1 Remote access modeling (E2)} *)

type hop_breakdown = {
  label : string;  (** e.g. ["pcie-gen4 x16 (nic0->pciesw0)"] *)
  figure1_class : int option;
  latency : Ihnet_util.Units.ns;
}

val remote_read_breakdown :
  Ihnet_engine.Fabric.t -> nic:string -> target:string -> hop_breakdown list
(** Per-hop latency decomposition of a remote one-sided RDMA read
    arriving from the external network through [nic] to [target], under
    the fabric's {e current} load — the paper's "(1) to (5)" traversal.
    The list is ordered from the external network inward. *)

val intra_host_share :
  Ihnet_engine.Fabric.t -> nic:string -> target:string -> float
(** Fraction of the end-to-end one-way latency spent inside the host
    (all hops except the inter-host link), in [\[0,1\]]. *)
