(** Binary min-heap keyed by [float] priority.

    The simulator's event queue, the fair-share solver's event sweep
    and routing's frontier. Entries with equal priority are popped in
    insertion order (a monotone sequence number breaks ties), which
    keeps event execution deterministic. A value taken out (by {!pop},
    {!drop_top} or {!clear}) is no longer referenced by the heap, so
    the collector can free it. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h prio v] inserts [v] with priority [prio]. O(log n). *)

val peek : 'a t -> (float * 'a) option
(** Smallest priority without removing. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the smallest-priority entry. O(log n). *)

(** {2 Top accessors}

    [peek] and [pop] allocate an option and a pair per call; these read
    and remove the top without allocating a container, for loops that
    drain the heap on hot paths (the simulator's event loop, the
    fair-share solver's event sweep).
    The [float] result of [top_prio] is still boxed at a call from
    another module unless the compiler inlines across modules. *)

val top_prio : 'a t -> float
(** Smallest priority, without removing.
    @raise Invalid_argument when the heap is empty. *)

val top : 'a t -> 'a
(** The value [peek] would return, without removing.
    @raise Invalid_argument when the heap is empty. *)

val drop_top : 'a t -> unit
(** Remove the smallest-priority entry, the one [pop] would return.
    O(log n).
    @raise Invalid_argument when the heap is empty. *)

val clear : 'a t -> unit
