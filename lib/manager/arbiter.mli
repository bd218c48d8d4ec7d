(** Dynamic resource arbiter (§3.2).

    Enforces the scheduler's placements at run time: every live flow
    that belongs to a placement gets a guaranteed floor (its share of
    the placed rate) and — for non-work-conserving tenants — a matching
    cap. Shares are recomputed whenever flows attach or detach, so "the
    arbiter should dynamically adjust the allocation promptly when
    applications come and go".

    §3.2-Q2 asks {e where} to implement arbitration given rigid PCIe
    hardware; this arbiter is the paper's suggested "unified software
    shim layer": {!start_shim} polls the fabric and classifies every
    new payload flow, so tenants need no cooperation. The polling
    period models the shim's reaction latency, and [reaction_delay]
    adds the enforcement-path latency on top (§3.2-Q3). *)

type t

val create : Ihnet_engine.Fabric.t -> ?reaction_delay:Ihnet_util.Units.ns -> unit -> t
(** [reaction_delay] (default 0): simulated delay between a decision
    and its taking effect on the fabric. Raises [Invalid_argument]
    unless it is >= 0. *)

val add_placement : t -> Placement.t -> unit
val remove_placement : t -> Placement.t -> unit
(** Detaches its flows (returning them to best-effort). *)

val placements : t -> Placement.t list

val attach_placement : t -> Ihnet_engine.Flow.t -> Placement.t option
(** Like {!attach} but returns the matched placement, so callers (the
    manager) can reconcile the reservation with the flow's actual
    route. *)

val detach : t -> Ihnet_engine.Flow.t -> unit
val refresh : t -> unit
(** Prune dead flows and recompute all shares, as one
    {!Ihnet_engine.Fabric.batch} (one reallocation epoch). When no
    placement has an attached flow there is nothing to enforce, and
    [refresh] opens no batch at all: an idle pass costs no epoch.
    Run by every shim pass, and by the remediation supervisor when it
    re-arbitrates or changes floor scales. *)

val start_shim : ?attach:(Ihnet_engine.Flow.t -> bool) -> t -> period:Ihnet_util.Units.ns -> unit
(** Poll the fabric every [period]: {!refresh}, then attach
    unclassified payload flows (through [attach] when given — the
    manager passes its reconciling variant). The classification scan
    runs, and [attach] is consulted, only while at least one placement
    and one flow exist: with no placement nothing can match. The
    arbiter as software shim layer. Raises [Invalid_argument] unless
    [period] > 0. *)

val stop_shim : t -> unit

val decisions : t -> int
(** Enforcement actions issued (set_flow_limits calls) — the load that
    must stay microsecond-cheap per §3.2-Q3. *)

val guaranteed_of : t -> Ihnet_engine.Flow.t -> float
(** Current floor installed for a flow; 0.0 if unmanaged. *)

val installed_floors : t -> (int * float) list
(** The floor table as (flow id, floor), sorted by id. Floors are
    pruned when a flow detaches, is released, completes, or is stopped
    — the guarantee-accounting invariant the soak and the qcheck
    property pin: every entry belongs to a live attached flow. *)
