(** Binary min-heap keyed by [float] priority.

    The simulator's event queue. Entries with equal priority are popped
    in insertion order (a monotone sequence number breaks ties), which
    keeps event execution deterministic; {!compact} reverses that order
    among the entries it keeps. A value taken out (by {!pop},
    {!drop_top}, {!drop_while}, {!clear} or {!compact}) is no longer
    referenced by the heap, so the collector can free it. *)

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
    fair-share solver's event sweep, the fabric's completion heap).
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

val drop_while : 'a t -> ('a -> bool) -> unit
(** [drop_while h pred] pops entries while the minimum entry's value
    satisfies [pred]. Supports lazy deletion: push a generation stamp
    with each value and drop stale tops before peeking. *)

val compact : 'a t -> ('a -> bool) -> unit
(** [compact h keep] drops, in place, every entry whose value fails
    [keep], which it calls once per entry in no set order and which
    must not touch [h]. The kept entries come out as if popped all in
    order and pushed back last-popped first: they keep their pop order
    among distinct priorities, equal priorities come back reversed, and
    the entries pushed after them pop after them at equal priority.
    O(n + k log k) for [k] kept of [n]; allocates nothing. *)

val to_list : 'a t -> (float * 'a) list
(** All entries in pop order (non-destructive; O(n log n)). Testing aid. *)
