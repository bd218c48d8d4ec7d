(** Weighted max-min fair rate allocation with floors and caps
    (progressive filling / water-filling).

    This is the engine's bandwidth-sharing law and simultaneously the
    arbiter's enforcement mechanism: the arbiter expresses guarantees as
    per-flow {e floors} and limits as {e caps}, and the same filling
    algorithm realizes both (a pure reservation system is
    [floor = cap]; a work-conserving one leaves [cap = infinity]).

    A demand consumes [coeff × rate] on each resource it uses; the
    coefficient models protocol inefficiency (e.g. a 64 B-payload DMA
    stream consumes ~1.4× its goodput on a PCIe link in TLP headers). *)

type demand = {
  weight : float;  (** Filling speed; must be > 0. *)
  floor : float;  (** Guaranteed rate (bytes/s); >= 0. *)
  cap : float;  (** Ceiling — already folded with the source's offered
                    rate; [infinity] when elastic. *)
  res : int array;
      (** The resources the demand uses, in hop order; a resource may
          appear once per demand. *)
  coeff : float array;
      (** [coeff.(j)] is the demand's coefficient on [res.(j)]: it
          consumes [coeff.(j) × rate] there. Same length as [res];
          >= 1 typically. *)
}
(** A demand's usage is two flat arrays, so the fabric's byte
    integration, the solver and the fabric's load fold read it with
    plain loops that allocate nothing. The solver sums over a demand's
    usage in array order; callers that need bit-identical rates must
    keep that order. The solver only reads the arrays, so a caller may
    share them between demands. *)

val allocate : capacities:float array -> demand array -> float array
(** [allocate ~capacities demands] returns one rate per demand such
    that:
    - no resource's aggregate coefficient-weighted rate exceeds its
      capacity (up to rounding);
    - every demand receives at least its floor, unless floors are
      jointly infeasible, in which case {e all} floors are scaled down
      by the single factor that restores feasibility;
    - no demand exceeds its cap;
    - the remaining capacity is filled max-min fairly in proportion to
      the weights.

    Demands with an empty [res] get their cap.

    This is the production solver. The fabric runs its core,
    {!solve}, once per DDIO spill iteration of every component it
    computes (MODEL.md §13).

    Implementation: an event-driven sweep over the progressive-filling
    front — next cap hits and next resource saturations live in one
    min-heap, and each event touches only the demands incident to the
    frozen resource. O((n + Σ|usage|) log n) rather than the
    reference's O(n · (n + Σ|usage|)).

    [allocate] goes through {!solve}, each demand being its own usage
    vector, of multiplicity 1. Its only allocation of any size is the
    result.

    The solver's scratch (the incidence arrays, the per-demand and
    per-resource arrays, the event heap) lives in a workspace owned by
    the calling domain. It grows to the largest problem solved so far
    and is reused by every later call on that domain; solves on
    different domains never share one. The workspace is invisible in
    results: a call resets every slot it reads, and it keeps no
    reference to a caller's usage arrays once it returns.

    Not reentrant within a domain: a second call that started before
    the first returned would overwrite its workspace. It calls nothing
    back, so only a signal handler that solves could do that, and
    ihnet installs none.

    @raise Invalid_argument when a demand breaks an invariant
    {!validate} checks. *)

type vectors
(** A table of usage vectors over a fixed number of resources, indexed
    by small int ids that its owner hands out. The vectors are stored
    flat, each one checked when it enters ({!set_vector}), so {!solve}
    reads them in place and never re-checks them. *)

val vectors : nr:int -> vectors
(** An empty table for vectors over resources [\[0, nr)]. *)

val set_vector : vectors -> int -> int array -> float array -> unit
(** [set_vector v u res coeff] makes vector [u] the resources [res]
    with coefficients [coeff] (copied), replacing what [u] held. The
    table grows to hold [u].

    @raise Invalid_argument, changing nothing, when [u < 0] or the
    vector breaks an invariant: [res] and [coeff] of one length,
    resources within the table's, coefficients > 0 (NaN fails). *)

val clear_vector : vectors -> int -> unit
(** Empty vector [u] and free its entries. *)

val solve :
  capacities:float array ->
  vectors ->
  n:int ->
  usage:int array ->
  weight:float array ->
  floor:float array ->
  cap:float array ->
  mult:float array ->
  float array ->
  unit
(** The solver core, over demands that share usage vectors by id.
    [solve ~capacities vec ~n ~usage ~weight ~floor ~cap ~mult out]
    solves [n] demands: demand [i] has weight [weight.(i)], floor
    [floor.(i)], cap [cap.(i)], the usage of vector [usage.(i)] of
    [vec], and multiplicity [mult.(i)]. It writes demand [i]'s rate
    into [out.(i)].

    {b Multiplicity.} Demand [i] stands for [k = mult.(i)] identical
    demands, each of which gets the rate [out.(i)]: every load and
    growth-speed term it adds to a resource is [k *. (x *. c)], where
    [x *. c] is the term one such demand adds ([x] its rate or its
    weight, [c] its coefficient there). At [k = 1.0] that is [x *. c]
    bit for bit, so a solve whose multiplicities are all 1.0 is, bit for
    bit, what {!allocate} returns for the same demands with their
    usage as records: every float operation has the same operands in
    the same order.

    Merging [k] identical demands into one of multiplicity [k] is exact
    (the rates equal, bit for bit, those of the solve with the [k]
    demands listed one by one, wherever they stood in the demand order)
    when no floor is above zero and the sums the sweep forms are exact:
    every product [weight.(i) *. c] over a demand's coefficients is a
    multiple of [2{^E}] for one [E], and the multiplicity-weighted total
    of those products stays below [2{^51+E}]. Then every partial sum of
    a growth speed, every [k *. (w *. c)] product and every freeze's
    subtraction is exact, so no sum depends on the order of its terms,
    and equal-time events commute: a freeze brings each resource's
    load forward before it subtracts that resource's speed. Otherwise
    the merged solve agrees with the listed one to rounding (the
    property tests hold it to 1e-9 relative), not bit for bit.

    The vectors are read in place, never copied. The incidence counts
    are taken once per distinct vector, times the number of demands
    that use it, so [n] demands on few vectors cost [n] plus those
    vectors' entries there, not their total usage. Every demand's
    fields are checked (as {!validate} does), and each [usage.(i)]
    must name a vector of [vec]; vectors no demand names are never
    read.

    The workspace and reentrancy rules of {!allocate} apply.

    @raise Invalid_argument when [n] exceeds a per-demand array,
    [Array.length out < n], [capacities] covers fewer resources than
    the table, a demand's weight, floor or cap is out of range, its
    multiplicity is below 1, infinite or NaN, or a usage id is outside
    the table; the message names the demand. *)

val allocate_reference : capacities:float array -> demand array -> float array
(** The original round-based progressive-filling implementation,
    retained as the semantic oracle: [allocate] must agree with it to
    within 1e-6 relative error on every input (enforced by a
    differential property test). Do not use on hot paths. *)

val validate : capacities:float array -> demand array -> unit
(** Check every demand against the documented invariants (weight > 0,
    floor >= 0, cap >= 0, [res] and [coeff] of one length, in-range
    resources, coefficients > 0).

    @raise Invalid_argument on the first violation. [allocate] and
    [allocate_reference] perform the same checks — with a real raise,
    not [assert], so they survive [-noassert] builds. *)

type stats = {
  solves : int;  (** Solver calls. *)
  full_rebuilds : int;  (** Always equal to [solves]: every call builds from scratch. *)
  incremental : int;  (** Always 0: no call updates an earlier solution. *)
  unchanged : int;
      (** DDIO spill iterations skipped because the previous one
          reached the fixed point. *)
}
(** The fabric's solver-work ledger, summed over the components it
    computes ({!Fabric.scan_solver_stats}). [full_rebuilds] and [incremental]
    say nothing that [solves] does not; both stay because the
    benchmark reads them ([fairshare.full_rebuilds_per_op] and
    [fairshare.incremental_per_op] in [perfbench/]). *)
