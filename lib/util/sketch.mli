(** Fixed-geometry, allocation-free latency sketch (HdrHistogram-style).

    The library's one percentile structure: workload latencies and
    iteration times, ping RTTs, the always-on latency plane, telemetry,
    SLO p99 intents and fleet roll-ups all record into it. Log-linear
    buckets — one octave per power of two, [sub] linear sub-buckets
    each, values in [\[0,1)] in a linear range below the octaves — are
    backed by a flat [int array] sized at creation, so {!record} never
    allocates, resizes, or hashes: cheap enough to leave recording on
    every reallocation epoch.

    Determinism contract: a sketch stores only integer counts plus exact
    min/max; mean and percentiles are derived from the counts in bucket
    order at read time. Integer addition and [Float.min]/[Float.max] are
    commutative and associative, so {!merge}d sketches report
    bit-identical statistics under any merge grouping or order — the
    property {!Fleet}-style roll-ups rely on. A [Hashtbl]-backed
    histogram with the same bucket function lives in the tests as the
    differential oracle. *)

type t

val create : ?sub:int -> ?max_octave:int -> unit -> t
(** [sub] sub-buckets per octave (default 32 — ~3% relative error).
    [max_octave] is the top octave, [\[2^max_octave, 2^(max_octave+1))]
    (default 40: up to 2^41 ns ≈ 36 min — plenty for intra-host
    latencies); larger values clamp into the top bucket, with min/max
    staying exact. *)

val record : t -> float -> unit
(** Record a value. Non-finite or negative values are ignored.
    Allocation-free: a bucket index is computed with [Float.frexp] and a
    flat-array slot is bumped. *)

val count : t -> int

val mean : t -> float
(** [total t /. count t]; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t q], [q] in [\[0,1\]]; [nan] when empty. Midpoint of
    the bucket holding the q-th sample, clamped to
    [\[min_value, max_value\]] so the estimate never leaves the observed
    range. *)

val max_value : t -> float
(** Largest recorded value (exact). [nan] when empty. *)

val min_value : t -> float

val merge : t -> t -> unit
(** [merge dst src] adds all of [src]'s counts into [dst].
    @raise Invalid_argument when the two geometries ([sub],
    [max_octave]) differ. *)

val copy : t -> t
val clear : t -> unit

val fold_buckets : t -> init:'a -> ('a -> int -> 'a) -> 'a
(** Fold over the raw bucket counts in index order, without exposing
    (or copying) the backing array — enough to hash the full bucket
    state into a scan digest. *)

type snapshot = {
  s_count : int;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
  s_max : float;
}
(** A one-shot percentile summary — the unit telemetry and the CLI
    surface. All fields [nan] (count 0) when empty. *)

val snapshot : t -> snapshot

val pp : Format.formatter -> t -> unit
(** One-line summary: count / mean / p50 / p99 / p999 / max. *)
