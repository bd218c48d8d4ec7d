(** Management policies compared in E8: what runs on the host.

    - [No_management]: today's default — flows share by unmanaged
      max-min fairness; aggressors win.
    - [Static_partition]: the RDT-like {e point solution} the paper
      criticizes ("limited point solutions that mitigate interference
      from specific components in a coarse-grained way"): the memory
      bus is split evenly among tenants; PCIe and everything else stays
      unmanaged.
    - [Holistic]: the full compile–schedule–arbitrate manager. *)

type t =
  | No_management
  | Static_partition of { tenants : int list }
  | Holistic of Manager.t

type handle

val install : Ihnet_engine.Fabric.t -> t -> period:Ihnet_util.Units.ns -> handle
(** Start the policy's enforcement shim (a no-op for
    [No_management]).
    @raise Invalid_argument unless [period > 0.] (NaN is refused). *)

val uninstall : handle -> unit

val label : t -> string
