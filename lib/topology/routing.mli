(** Path computation over a topology.

    Shortest paths use Dijkstra; alternatives use Yen's k-shortest-paths
    algorithm. The scheduler asks for several candidate "pathways"
    between endpoints and picks by current usage (§3.2,
    "topology-aware resource scheduler"). *)

type weight = [ `Latency | `Hops | `Inverse_capacity ]
(** Edge weight: base latency (default), hop count, or 1/capacity
    (prefers fat pipes). *)

val shortest_path :
  ?weight:weight -> ?avoid:Link.id list -> Topology.t -> Device.id -> Device.id -> Path.t option
(** [shortest_path topo src dst] or [None] when [dst] is unreachable
    (e.g. through [avoid]-induced cuts). A trivial path (empty hops) is
    returned when [src = dst]. *)

val route : Topology.t -> string -> string -> Path.t
(** [route topo a b] is {!shortest_path} (by latency) between the two
    named devices; the empty path when [a = b].
    @raise Invalid_argument ["no device NAME"] for an unknown name
    (the source is checked first), or ["no path from A to B"] when [b]
    is unreachable. *)

val k_shortest_paths :
  ?weight:weight -> k:int -> Topology.t -> Device.id -> Device.id -> Path.t list
(** Up to [k] loop-free paths, best first (Yen). *)

val reachable : Topology.t -> Device.id -> Device.id -> bool

val path_weight : weight -> Path.t -> float
