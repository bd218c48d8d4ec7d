(** Topology-aware resource scheduler (§3.2).

    "There can be several GPU–SSD pathways within an intra-host network
    that can support the same amount of bandwidth. The scheduler needs
    to carefully choose one of the pathways based on topology and usage
    information to maximize overall resource efficiency."

    The scheduler keeps a reservation ledger per (link, direction).
    Placing a requirement means choosing, among its candidate paths,
    the one that minimizes the post-placement bottleneck reservation
    ratio — greedy water-level packing. Admission fails when every
    candidate would push some hop past [headroom × capacity]. *)

type t

val create : Ihnet_topology.Topology.t -> ?headroom:float -> unit -> t
(** [headroom] (default 0.9) caps the reservable fraction of each link
    direction, leaving slack for latency and unmanaged traffic. Raises
    [Invalid_argument] unless it is in (0, 1]. *)

val reservation_ratio : t -> Ihnet_topology.Link.id -> Ihnet_topology.Link.dir -> float
(** reserved / (headroom × capacity). *)

val place : t -> Interpreter.requirement -> (Placement.t, Mgr_error.t) result
(** Choose a path and record the reservation. The returned placement is
    already charged to the ledger. Refusal is always
    {!Mgr_error.Capacity_exhausted}. *)

val place_all :
  t -> Interpreter.requirement list -> (Placement.t list, Mgr_error.t) result
(** All-or-nothing: on failure the ledger is rolled back to its state
    before the call. *)

val release : t -> Placement.t -> unit
(** Return a placement's reservation to the ledger. Idempotence is the
    caller's duty (the manager tracks what is live). *)

val move : t -> Placement.t -> Ihnet_topology.Path.t -> bool
(** [move t p path] migrates [p]'s reservation onto [path]: releases
    the old charge, and charges the new route if it fits under the
    headroom (updating [p.path]); otherwise restores the old charge and
    returns [false]. Lets the dynamic arbiter follow the route tenant
    traffic actually takes. *)

val total_reserved : t -> float
(** Sum of reservations across all link directions (a capacity-
    consumption measure; hose placements consume much less than the
    equivalent pipes — E9). *)

val utilization_summary : t -> (Ihnet_topology.Link.id * float * float) list
(** Per link: (id, fwd ratio, rev ratio), only links with any
    reservation. *)
