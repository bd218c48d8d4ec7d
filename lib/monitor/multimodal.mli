(** Multivariate (learned) anomaly detection over heterogeneous
    telemetry — §3.1-Q3.

    "Intra-host networks are more heterogeneous, so the collected data
    will have more modalities (e.g., DDIO cache usage, and PCIe
    bandwidth consumption). This means using machine learning may be
    more essential in order to leverage these high-modality data for
    diagnosis than that in inter-host networks."

    The detector learns a per-dimension Gaussian baseline over a
    feature vector assembled from several telemetry series, then scores
    each new vector with the {e standardized chi-square statistic}

    [d(x) = (Σᵢ zᵢ² − k) / √(2k)]   where   [zᵢ = (xᵢ − μᵢ)/σᵢ],

    which is ≈ N(0,1) under the baseline regardless of the number of
    dimensions [k], and accumulates it over time CUSUM-style
    ([S ← max(0, S + d − drift)], alarm at [S > threshold]). A
    composite anomaly that shifts many modalities by ~1σ each — too
    subtle for any single-series detector — still lifts [d] because
    evidence {e sums across dimensions}, and the accumulator turns a
    persistent small lift into an alarm within a few samples. E12
    measures this against per-series CUSUM. *)

type verdict =
  | Learning  (** Still inside the warm-up window. *)
  | Score of float  (** Instantaneous standardized distance; no alarm. *)
  | Alarm of float  (** The accumulator crossed the threshold. *)

type t

val create : ?warmup:int -> series:string list -> unit -> t
(** [warmup] baseline vectors (default 64); [series] the telemetry
    series forming the feature vector, in order. The accumulated
    distance takes 0.5 of slack per sample and alarms above 8.0.
    @raise Invalid_argument on an empty series list, or unless
    [warmup > 1]. *)

val observe : t -> at:Ihnet_util.Units.ns -> float array -> verdict
(** Feed one feature vector (same arity and order as [series]). After
    an alarm the accumulator resets.
    @raise Invalid_argument on an arity mismatch. *)

val feed : t -> Telemetry.t -> verdict option
(** Assemble the current vector from the latest sample of each series
    and {!observe} it. [None] when some series has no data yet or no
    series advanced since the last call. Call once per sampler tick. *)

type alarm = {
  at : Ihnet_util.Units.ns;
  accumulated : float;  (** Accumulator value when it crossed. *)
  drivers : (string * float) list;
      (** Per-dimension |z|-scores of the offending vector, largest
          first — captured {e at alarm time}, before the baseline
          re-adapts. *)
}

val alarms : t -> alarm list
(** All alarms so far, oldest first. *)
