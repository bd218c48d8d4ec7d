(** Tenants: the isolation unit of the multi-tenant host.

    Tenant 0 is reserved for the infrastructure itself (monitoring,
    induced traffic); application tenants start at 1. *)

type t = {
  id : int;
  name : string;
  kind : kind;
}

and kind =
  | Vm  (** Virtual machine. *)
  | Container
  | Infra  (** The host infrastructure (monitor, manager). *)

type registry

val create_registry : unit -> registry
(** The infrastructure tenant (id 0) is pre-registered. *)

val register : registry -> name:string -> kind:kind -> t
(** @raise Invalid_argument on duplicate name. *)

val infra : registry -> t
val find : registry -> int -> t option
val find_by_name : registry -> string -> t option
val count : registry -> int
val pp : Format.formatter -> t -> unit
