(** IOMMU / IOTLB translation-cost model.

    With the IOMMU enabled, every DMA address is translated; the IOTLB
    caches translations. Agarwal et al. (HotNets'22) — the paper's [2] —
    show that once the devices' aggregate working set exceeds IOTLB
    reach, translation misses inflate both latency and PCIe bandwidth
    cost. We model the IOTLB as an LRU cache under independent-reference
    pressure: miss rate ≈ max(0, 1 − entries / working-set-pages). *)

val miss_rate : entries:int -> working_set_pages:int -> float
(** In [\[0,1\]]; 0 when the working set fits.
    @raise Invalid_argument naming [entries] when [entries <= 0]. *)

val expected_translation_latency :
  Ihnet_topology.Hostconfig.iommu -> working_set_pages:int -> Ihnet_util.Units.ns
(** Per-transaction expected cost: 0 when off, else
    [hit_latency + miss_rate × miss_penalty]. *)

val bandwidth_overhead_factor :
  Ihnet_topology.Hostconfig.iommu -> working_set_pages:int -> payload_bytes:int -> float
(** Multiplicative capacity-consumption factor (≥ 1) on PCIe hops:
    translation stalls reduce achievable DMA efficiency for small
    payloads. 1.0 when the IOMMU is off. *)
