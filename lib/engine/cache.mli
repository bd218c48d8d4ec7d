(** DDIO / last-level-cache occupancy model (per socket).

    With DDIO on, inbound DMA writes allocate into a small set of
    dedicated LLC ways. §2 of the paper: two high-throughput devices
    writing concurrently thrash those ways — "data are evicted from the
    cache before being consumed", converting I/O writes into extra
    memory-bus traffic (eviction write-back plus the consumer's re-read
    from DRAM).

    Model: data written at aggregate rate [r] and consumed after a reuse
    window [d] needs occupancy [r·d]; the I/O ways hold [w] bytes. The
    hit fraction is [min 1 (w / (r·d))] and every missed byte crosses
    the memory bus twice. This is the standard fluid working-set
    approximation of Lamda [37] / Farshin et al. [17]. *)

type t

val create : Ihnet_topology.Hostconfig.ddio -> t

val enabled : t -> bool

val hit_rate : t -> write_rate:float -> float
(** [hit_rate t ~write_rate] for the aggregate DDIO write rate into
    this socket, in [\[0,1\]]. 0 when DDIO is off (every I/O byte goes
    to DRAM — but without DDIO it goes there {e once}, see
    {!spill_amplification}). *)

val spill_rate : t -> write_rate:float -> float
(** Memory-bus traffic induced by DDIO misses, bytes/s: [(1 − hit) ×
    write_rate × 2] when on (write-back + re-read); [write_rate × 1]
    when off (plain DMA-to-memory, the consumer read then hits the
    LLC by normal allocation). *)
