(** The holistic resource manager: interpreter + scheduler + arbiter
    behind one facade — the paper's compile–schedule–arbitrate scheme.

    Typical use:
    {[
      let mgr = Manager.create fabric () in
      Manager.start_shim mgr ~period:(Units.us 50.0);
      match Manager.submit mgr (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0"
                                  ~rate:(Units.gbps 20.0)) with
      | Ok _ -> (* tenant 1's ext->socket0 flows now hold 2.5 GB/s *)
      | Error (Capacity_exhausted _) -> (* admission refused *)
      | Error e -> failwith (Manager.error_to_string e)
    ]} *)

type error = Mgr_error.t =
  | Invalid_intent of string
  | Unknown_device of string
  | No_home_socket of { device : string; socket : string }
  | No_path of { src : string; dst : string }
  | No_uplink of string
  | No_downlink of string
  | Capacity_exhausted of { tenant : int; rate : float; best_ratio : float }
  | Not_a_pipe
  | No_alternate_path
  | Host_unreachable of string
  | Retries_exhausted of { host : string; command : string }
  | No_feasible_host of { tenant : int }
      (** Everything admission, re-placement, and the fleet controller
          can refuse, re-exported from {!Mgr_error} so callers can match
          on the cause instead of parsing message strings. *)

val error_to_string : error -> string
(** Byte-identical to the messages of the old stringly API. *)


type t

val create :
  Ihnet_engine.Fabric.t ->
  ?headroom:float ->
  ?reaction_delay:Ihnet_util.Units.ns ->
  unit ->
  t

val fabric : t -> Ihnet_engine.Fabric.t
val scheduler : t -> Scheduler.t
val arbiter : t -> Arbiter.t

val submit : t -> Intent.t -> (Placement.t list, error) result
(** Compile, schedule (all-or-nothing admission), and hand the
    placements to the arbiter. *)

val revoke : t -> tenant:int -> unit
(** Release all of a tenant's placements and return its flows to
    best-effort — "applications come and go". *)

val placements : t -> Placement.t list
val tenants : t -> int list

val attach : t -> Ihnet_engine.Flow.t -> bool
val detach : t -> Ihnet_engine.Flow.t -> unit

val start_shim : t -> period:Ihnet_util.Units.ns -> unit
val stop_shim : t -> unit

val affected_placements : t -> Ihnet_topology.Link.id -> Placement.t list
(** Live placements whose reserved path crosses the link — the blast
    radius of a fault on it. *)

val replace_placement :
  t -> avoid:Ihnet_topology.Link.id list -> Placement.t -> (Ihnet_topology.Path.t, error) result
(** Re-place a pipe placement onto an alternate path avoiding every
    link in [avoid]: recompile the equivalent intent for fresh
    candidates, migrate the reservation ledger ({!Scheduler.move}) to
    the first candidate that fits, then migrate each attached running
    flow onto the new route (remaining bytes, demand and weight carried
    over) in one reallocation batch. Hose placements are anchored to
    their endpoint's uplink and return [Error]. *)

val vnet : t -> tenant:int -> Ihnet_topology.Topology.t
(** The tenant's virtualized view of the intra-host network. *)

val decisions : t -> int
(** Total arbiter enforcement actions. *)

val guaranteed_throughput : t -> tenant:int -> float
(** Sum of the tenant's placed rates, bytes/s. *)
