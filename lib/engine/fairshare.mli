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
  usage : (int * float) list;
      (** (resource index, coefficient) pairs, coefficient >= 1
          typically; a resource may appear once per demand. *)
}

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

    Demands with an empty [usage] get their cap.

    This is the production solver. The fabric runs it, through
    {!allocate_into}, once per DDIO spill iteration of every component
    it computes (MODEL.md §13).

    Implementation: an event-driven sweep over the progressive-filling
    front — next cap hits and next resource saturations live in one
    min-heap, and each event touches only the demands incident to the
    frozen resource. O((n + Σ|usage|) log n) rather than the
    reference's O(n · (n + Σ|usage|)).

    [allocate] is {!allocate_into} on a fresh array: its only
    allocation of any size is the result. *)

val allocate_into :
  capacities:float array -> n:int -> demand array -> float array -> unit
(** [allocate_into ~capacities ~n demands out] solves the first [n]
    demands exactly as [allocate ~capacities (Array.sub demands 0 n)]
    would, bit for bit, and writes demand [i]'s rate into [out.(i)].
    [demands.(n..)] are neither read nor validated, and [out.(n..)] is
    left untouched, so a caller can keep grow-only demand and rate
    buffers of its own.

    The solver's scratch (CSR usage and incidence arrays, per-demand
    and per-resource arrays, event heap) lives in a workspace owned by
    the calling domain. It grows to the largest problem solved so far
    and is reused by every later call on that domain; solves on
    different domains never share one. The workspace is invisible in
    results: a call resets every slot it reads.

    Not reentrant within a domain: a second call that started before
    the first returned would overwrite its workspace. It calls nothing
    back, so only a signal handler that solves could do that, and
    ihnet installs none.

    @raise Invalid_argument when [n < 0], [n > Array.length demands],
    [Array.length out < n], or one of the first [n] demands breaks an
    invariant {!validate} checks. *)

val allocate_reference : capacities:float array -> demand array -> float array
(** The original round-based progressive-filling implementation,
    retained as the semantic oracle: [allocate] must agree with it to
    within 1e-6 relative error on every input (enforced by a
    differential property test). Do not use on hot paths. *)

val max_min_fair : capacities:float array -> (int * float) list array -> float array
(** Unweighted, floorless, capless convenience wrapper (weight 1,
    floor 0, cap ∞). *)

val validate : capacities:float array -> demand array -> unit
(** Check every demand against the documented invariants (weight > 0,
    floor >= 0, cap >= 0, in-range resources, coefficients > 0).

    @raise Invalid_argument on the first violation. [allocate],
    [allocate_into] and [allocate_reference] perform the same checks
    (on the demands they solve) — with a real raise,
    not [assert], so they survive [-noassert] builds. *)

type stats = {
  solves : int;  (** Solver calls ([allocate] or [allocate_into]). *)
  full_rebuilds : int;  (** Equal to [solves]: every call builds from scratch. *)
  incremental : int;  (** Always 0; kept so ledger readers stay stable. *)
  unchanged : int;
      (** DDIO spill iterations skipped because the previous one
          reached the fixed point. *)
}
(** The fabric's solver-work ledger, summed over the components it
    computes ({!Fabric.scan_solver_stats}). Memo hits replay a result
    without solving and add nothing. *)
