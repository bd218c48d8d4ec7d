(** Growable array ("vector").

    Amortized O(1) push, O(1) indexed read, O(1) clear. The engine
    uses these as preallocated scratch buffers on its reallocation hot
    path: [clear] keeps the backing store, so a steady-state workload
    stops allocating once the high-water mark is reached. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append one element. Amortized O(1); doubles the backing array. *)

val get : 'a t -> int -> 'a
(** @raise Invalid_argument out of bounds. *)

val pop : 'a t -> 'a
(** Remove and return the last element; its cell keeps the value until
    a later push overwrites it, as after [clear].
    @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
(** Logical reset; the backing array (and its references) survive
    until overwritten by later pushes. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val exists : ('a -> bool) -> 'a t -> bool
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_array : 'a t -> 'a array
(** Fresh array of the live prefix. O(n). *)
