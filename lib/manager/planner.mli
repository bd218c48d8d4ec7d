(** Capacity planning over intents.

    Operators ask two questions before placing a tenant mix on a host:
    does this deployment fit, and how much uniform growth is left?
    Both reduce to trial placements against a scratch scheduler — no
    fabric needed, so planning is cheap enough to run per migration
    decision (the paper's VM-migration motivation for the virtualized
    abstraction). *)

val fits : Ihnet_topology.Topology.t -> ?headroom:float -> Intent.t list -> bool
(** Would the whole deployment be admitted on an empty host? *)

val max_scale : Ihnet_topology.Topology.t -> ?headroom:float -> Intent.t list -> float
(** Largest uniform factor [s] such that every intent with its rates
    multiplied by [s] still fits (binary search to within 1%). 0.0
    when even an arbitrarily small scale is rejected (e.g. an
    unroutable pair); [s < 1.0] means the deployment is over-committed
    today. *)

val bottlenecks :
  Ihnet_topology.Topology.t -> ?headroom:float -> Intent.t list ->
  (Ihnet_topology.Link.t * float) list
(** After placing the deployment, the 5 most reserved links with
    their reservation ratios — where growth will hit first. Empty when
    the deployment does not fit at all. *)

val scale_intent : Intent.t -> float -> Intent.t
(** Every target rate multiplied by the factor. *)
