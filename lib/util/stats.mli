(** Streaming statistics used by the monitor, plus a batch mean and
    Jain's fairness index. Latency percentiles live in {!Sketch}. *)

(** {1 Batch} *)

val mean : float array -> float
(** Arithmetic mean; [nan] for an empty array. *)

val jain_index : float array -> float
(** Jain's fairness index [ (Σx)² / (n·Σx²) ]: 1 when all shares are
    equal, 1/n when one holds everything. [nan] for empty or all-zero
    input. Used to summarize per-tenant fairness. *)

(** {1 Welford's online mean/variance} *)

module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

(** {1 EWMA — exponentially weighted moving average}

    Used by the anomaly platform as a cheap baseline tracker: an alarm
    fires when a sample deviates from the EWMA by more than [k] running
    standard deviations. *)

module Ewma : sig
  type t

  val create : alpha:float -> t
  (** [alpha] in (0,1]; higher reacts faster.
      @raise Invalid_argument when [alpha] is outside (0, 1] or NaN. *)

  val add : t -> float -> unit
  val value : t -> float
  (** Current average; [nan] before the first sample. *)

  val stddev : t -> float
  (** EWMA-weighted deviation estimate. *)

  val deviation : t -> float -> float
  (** [deviation t x] is |x - value| / stddev, [0.] before warm-up or
      when stddev is 0. *)
end

(** {1 CUSUM changepoint detector}

    One-sided cumulative-sum detector on standardized residuals; detects
    small persistent shifts (e.g. a silently degraded link) faster than
    thresholding. *)

module Cusum : sig
  type t

  val create : ?drift:float -> threshold:float -> unit -> t
  (** [drift] (default 0.5) is the slack per sample in sigma units;
      [threshold] is the alarm level in sigma units (typ. 4–8).
      @raise Invalid_argument unless [threshold > 0.] (NaN is refused). *)

  val add : t -> expected:float -> sigma:float -> float -> [ `Ok | `Alarm of [ `Up | `Down ] ]
  (** Feed a sample with its expected value and scale. After an alarm the
      accumulators reset. [sigma <= 0.] samples are ignored. *)

  val upper : t -> float
  val lower : t -> float
end
