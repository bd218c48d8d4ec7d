(** Physical units used throughout [ihnet].

    Conventions, fixed once and used everywhere:
    - {b time} is simulated nanoseconds, carried as [float] ([ns]);
    - {b data} is bytes, carried as [float] when it is a rate numerator
      and as [int] when it is a discrete size;
    - {b rates} are bytes per second ([bytes/s]).

    The helpers below exist so that magic conversion factors ([1e9],
    [2.0 ** 30.0], ...) appear in exactly one module. *)

type ns = float
(** Simulated time in nanoseconds. *)

type bytes_per_s = float
(** Bandwidth in bytes per second. *)

val ns : float -> ns
(** Identity, for call-site documentation: [ns 500.0]. *)

val us : float -> ns
(** [us x] is [x] microseconds in nanoseconds. *)

val ms : float -> ns
(** [ms x] is [x] milliseconds in nanoseconds. *)

val s : float -> ns
(** [s x] is [x] seconds in nanoseconds. *)

val ns_to_us : ns -> float

val gib : float -> float
(** [gib x] is [x] gibibytes in bytes (2{^30}-based). *)

val mib : float -> float
val kib : float -> float

val gbps : float -> bytes_per_s
(** [gbps x] is [x] gigabits per second as bytes/s (decimal giga,
    matching how link speeds are quoted in the paper and by vendors). *)

val gbytes_per_s : float -> bytes_per_s
(** [gbytes_per_s x] is [x] gigabytes per second as bytes/s (decimal). *)

val to_gbps : bytes_per_s -> float
(** Inverse of {!gbps}, for reporting. *)

val pp_rate : Format.formatter -> bytes_per_s -> unit
(** Human-friendly rate, e.g. ["25.6 GB/s"] or ["845 MB/s"]. *)

val pp_time : Format.formatter -> ns -> unit
(** Human-friendly duration, e.g. ["130 ns"], ["2.1 us"], ["4.2 ms"]. *)

val pp_bytes : Format.formatter -> float -> unit
(** Human-friendly byte count, e.g. ["64 B"], ["1.5 MiB"]. *)
