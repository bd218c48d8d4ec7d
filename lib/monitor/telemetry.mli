(** Telemetry store: bounded time series.

    One ring of [(time, value)] samples per series; series are named
    strings (["link.3.fwd.util"], ["ddio.0.hit"]). The bound is the
    §3.1-Q2 "storage" half: memory is finite, old samples are
    overwritten, and {!dropped_samples} quantifies the loss.

    A writer that samples the same series over and over interns its
    name once ({!handle}) and writes through the handle ({!push}): a
    sample is then two stores into flat float arrays, with no name
    formatted or hashed and nothing boxed. Names stay at the edges —
    queries, CSV, the wire. *)

type sample = { at : Ihnet_util.Units.ns; value : float }
type t

val create : ?capacity_per_series:int -> unit -> t
(** Default capacity: 1024 samples per series.
    @raise Invalid_argument unless [capacity_per_series > 0]. *)

type handle
(** One series of one store. *)

val handle : t -> string -> handle
(** The series named so, created (empty) on first use: a name and its
    handle always refer to the same ring. A series that holds no
    sample yet is invisible to every reader, so interning ahead of use
    changes no output. *)

val name : handle -> string

val push : handle -> at:Ihnet_util.Units.ns -> float -> unit
(** Append a sample, overwriting the oldest when the ring is full. *)

val record : t -> series:string -> at:Ihnet_util.Units.ns -> float -> unit
(** [push (handle t series)]. *)

val walk : ?last:int -> handle -> (float array -> float array -> int -> unit) -> unit
(** [walk h f] calls [f ats values j] once per retained sample of [h],
    oldest first, with [last] (default: all) the newest so many: the
    sample's time is [ats.(j)] and its value [values.(j)]. The two
    arrays are the ring itself, read in place, so a walk allocates
    nothing per sample; [f] must not write them. *)

val series_names : t -> string list
val length : t -> series:string -> int

val latest : t -> series:string -> sample option
val window : t -> series:string -> since:Ihnet_util.Units.ns -> sample list
(** Samples with [at >= since], oldest first. *)

val values : t -> series:string -> float array
(** All retained values, oldest first; [||] for unknown series. *)

val rate_of_change : t -> series:string -> float option
(** Per-second derivative over the last two samples (e.g. turns a
    cumulative byte counter into bytes/s). [None] with fewer than two
    samples or zero time delta. *)

val last_update : t -> series:string -> Ihnet_util.Units.ns option
(** Timestamp of the freshest retained sample (max over [at], robust to
    clock-skewed out-of-order arrival); [None] for an empty/unknown
    series. *)

val staleness : t -> series:string -> now:Ihnet_util.Units.ns -> Ihnet_util.Units.ns option
(** [now - last_update], clamped at 0 — the per-series validity signal
    consumers check before trusting a reading. [None] when the series
    has never produced a sample (which callers should treat as the
    {e most} stale). *)

(** {1 Percentile snapshots}

    Latency-sketch summaries are stored as one plain sub-series per
    field ([<series>.count], [.mean], [.p50], [.p90], [.p99], [.p999],
    [.max]), so windows, CSV export, staleness tracking and anomaly
    detectors all apply to tail latency with no new machinery. *)

val pct_series : series:string -> string -> string
(** [pct_series ~series field] is the sub-series name
    [series ^ "." ^ field]. *)

val pct_fields : Ihnet_util.Sketch.snapshot -> (string * float) list
(** A snapshot decomposed into [(field, value)] pairs in pinned order
    ([count]; [mean]; [p50]; [p90]; [p99]; [p999]; [max]) — what
    {!record_pct} writes, exposed so samplers can route each field
    through their own recording funnel. *)

val record_pct :
  t -> series:string -> at:Ihnet_util.Units.ns -> Ihnet_util.Sketch.snapshot -> unit
(** Record every field of a percentile snapshot under its sub-series. *)

val latest_pct : t -> series:string -> Ihnet_util.Sketch.snapshot option
(** Reassemble the freshest snapshot from the sub-series; [None] before
    the first {!record_pct} (judged on the [.count] sub-series; fields
    individually missing — e.g. dropped by a sensor fault — read as
    [nan]). *)

val dropped_samples : t -> int
(** Total samples lost to ring-buffer overwrite, across series. *)

val memory_samples : t -> int
(** Total samples currently retained (the store's footprint). *)

val to_csv : ?series:string list -> t -> string
(** Export retained samples as CSV ([series,at_ns,value]), ordered by
    series then time. [series] (default: all) selects which to dump —
    how an operator gets the data off the host. *)
