(** PCIe link model.

    Capacity and protocol-efficiency model following Neugebauer et al.,
    "Understanding PCIe performance for end host networking"
    (SIGCOMM'18), the theoretical model the paper cites ([43]):

    - raw lane rate per generation (GT/s), minus line-coding overhead
      (8b/10b for gen 1–2, 128b/130b for gen 3+);
    - per-TLP overhead: 12–16 B TLP header + 6 B DLLP framing + 2 B
      sequence, so a DMA moving [mps]-byte payloads sustains
      [mps / (mps + overhead)] of the coded rate;
    - reads additionally consume forward bandwidth with request TLPs
      and are limited by outstanding-tag count (not modeled here; the
      engine's latency model covers queueing). *)

type gen = Gen1 | Gen2 | Gen3 | Gen4 | Gen5 | Gen6

type t = {
  gen : gen;
  lanes : int;  (** 1, 2, 4, 8, 16. *)
}

val v : gen -> int -> t
(** [v gen lanes]; validates the lane count.
    @raise Invalid_argument on a non-standard lane count. *)

val gt_per_s : gen -> float
(** Raw signalling rate per lane, GT/s. *)

val encoding_efficiency : gen -> float
(** 0.8 for gen 1–2 (8b/10b), 128/130 for gen 3+. *)

val raw_bandwidth : t -> Ihnet_util.Units.bytes_per_s
(** Coded link bandwidth per direction (what datasheets quote), e.g.
    gen4 x16 ≈ 31.5 GB/s ≈ 252 Gb/s — the "~256 Gbps" of Figure 1. *)

val payload_efficiency : mps:int -> float
(** [payload_efficiency ~mps] is [mps / (mps + h)], where [h] is the
    per-TLP overhead (26 B: framing, sequence number, CRC and a 3-DW
    header).
    @raise Invalid_argument naming [mps] when [mps <= 0]. *)

val label : t -> string
(** e.g. ["gen4 x16"]. *)

val pp : Format.formatter -> t -> unit
