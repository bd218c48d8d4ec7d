(** Fixed-size domain pool with a deterministic parallel [map].

    A hand-rolled work queue over [Domain] + [Mutex]/[Condition] (no
    dependencies beyond the OCaml 5 stdlib). A pool of size [n]
    consists of the calling domain plus [n - 1] worker domains parked
    on a condition variable; {!iter} fans a batch of index-addressed
    tasks out to as many of them as its caller asks for, and {!map}
    returns the results {e in index order}, so callers see the same
    array regardless of which domain computed which element —
    scheduling nondeterminism cannot leak through the interface. Tasks
    must therefore be pure with respect to shared mutable state (they
    may read anything that no other task writes).

    [iter] and [map] are not reentrant: they may only be called from
    the domain that created the pool (the coordinator), one batch at a
    time. That is exactly the fleet controller's use
    ([Ihnet_fleet.Controller]): the control loop lives on one domain
    and only the per-host advance phase fans out, one host per task. *)

type t

val create : int -> t
(** [create n] builds a pool of [n] total domains ([n - 1] spawned
    workers; clamped to [\[1, 64\]]). A pool of size 1 spawns nothing
    and {!map} degenerates to [Array.init] — the sequential fallback
    is the same code path callers get by not using a pool at all. *)

val size : t -> int
(** Total domains (including the coordinator), as clamped. *)

val iter : t -> width:int -> int -> (int -> unit) -> unit
(** [iter p ~width n f] runs [f 0], ..., [f (n-1)] on at most [width]
    domains (clamped to [\[1, size p\]]): the coordinator and workers
    [1 .. width - 1]; the pool's other workers stay parked. At width 1
    it is a plain loop on the calling domain, and it allocates no
    result array. Tasks are pulled from a shared atomic counter; the
    coordinator blocks until all [n] finished. If any task raises,
    the first exception (in completion order) is re-raised on the
    coordinator after the batch drains. Task effects are published to
    the coordinator with release/acquire semantics via the pending
    counter, so no additional synchronization is needed to read them. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map p n f] computes [[| f 0; ...; f (n-1) |]] with {!iter} at the
    pool's full width. *)

val shutdown : t -> unit
(** Stop and join all worker domains. Idempotent; the pool must not
    be used afterwards. Shutting down the {!get} pool is allowed (a
    later [get] builds a fresh one). *)

val default_domains : unit -> int
(** The process-wide default pool size: [IHNET_DOMAINS] from the
    environment when set to a positive integer, else 1. Read once. *)

val get : int -> t
(** [get n] returns the shared process-wide pool, grown to at least
    [n] total domains (workers are added, never removed, so every
    controller in the process reuses the same worker set — creating
    many fleets never accumulates domains toward the runtime's limit).
    A caller that wants width [n] passes it to {!iter}: the pool may be
    wider. The shared pool is shut down automatically [at_exit]. *)
