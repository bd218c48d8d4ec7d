(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that all experiments are exactly reproducible from a seed.
    The generator is SplitMix64 (Steele et al.), which is fast, has a
    64-bit state, and is trivially splittable — each tenant/app gets an
    independent stream via {!split}. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each workload source its own stream so that adding a
    source does not perturb the draws of the others. *)

val copy : t -> t
(** Duplicate the current state (the copies then evolve separately). *)

val stream : int -> int -> t
(** [stream seed i] is the [i]-th independent generator derived from
    [seed] — a pure function of [(seed, i)], unlike {!split}, which
    advances the parent. A fleet gives host [i] the stream [i] so each
    host's draws are identical under any sharding or creation order.
    Requires [i >= 0]. *)

val peek : t -> int64
(** Current internal state, read without advancing the stream — the
    scan port's view of the generator. Two generators with equal
    [peek] values produce identical future streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].
    @raise Invalid_argument unless [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. Used for
    Poisson inter-arrival times. *)

val pareto : t -> float -> float -> float
(** [pareto t alpha x_min] draws from a Pareto distribution; heavy-tailed
    flow sizes.
    @raise Invalid_argument unless [alpha > 0.] and [x_min > 0.]
    (NaN is refused), naming the field. *)

val gaussian : t -> float -> float -> float
(** [gaussian t mu sigma] draws a normal variate (Box–Muller). *)

val zipf : t -> int -> float -> int
(** [zipf t n s] draws a rank in [\[1, n\]] with Zipf exponent [s] by
    inversion on the precomputed CDF (O(log n) after an O(n) setup that
    is cached per [(n, s)]). Models skewed key popularity.
    @raise Invalid_argument unless [n > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)
