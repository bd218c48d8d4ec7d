(** The intra-host network graph: devices connected by links.

    Built mutably by the {!Builder} (or by hand), then used read-only by
    the engine, monitor and manager. Names are unique; ids are dense
    ints suitable for array indexing. *)

type t

val create : ?config:Hostconfig.t -> name:string -> unit -> t

val name : t -> string
val config : t -> Hostconfig.t
val set_config : t -> Hostconfig.t -> unit

(** {1 Construction} *)

val add_device : t -> name:string -> kind:Device.kind -> socket:int -> Device.t
(** @raise Invalid_argument if [name] is already taken. *)

val add_link :
  t ->
  kind:Link.kind ->
  a:Device.id ->
  b:Device.id ->
  capacity:Ihnet_util.Units.bytes_per_s ->
  base_latency:Ihnet_util.Units.ns ->
  Link.t
(** @raise Invalid_argument if an endpoint id does not exist, the
    endpoints are equal, capacity is not positive, or latency is
    negative. *)

(** {1 Queries} *)

val device : t -> Device.id -> Device.t
(** @raise Not_found on an unknown id. *)

val device_by_name : t -> string -> Device.t option
(** The device with this name, or [None]: for callers that handle
    absence themselves. *)

val device_named : t -> string -> Device.t
(** The device with this name: how an operator's or a workload's
    device name reaches the topology.
    @raise Invalid_argument ["no device NAME"] when absent. *)

val link : t -> Link.id -> Link.t
val device_count : t -> int
val link_count : t -> int
val devices : t -> Device.t list
val links : t -> Link.t list
val find_devices : t -> (Device.t -> bool) -> Device.t list

val neighbors : t -> Device.id -> (Link.t * Device.id) list
(** Adjacent links with the peer endpoint for each. *)

val links_between : t -> Device.id -> Device.id -> Link.t list

val link_named : t -> string -> string -> Link.t
(** The first link of {!links_between} the two named devices (no
    preset has two links between one pair).
    @raise Invalid_argument ["no device NAME"] for an unknown name, or
    ["no link between A and B"] when the two are not adjacent. *)

val sockets : t -> Device.t list
(** The CPU sockets, in device (id) order. *)

val home_socket : t -> Device.t -> Device.t option
(** The first CPU socket, in device order, whose [socket] index is the
    device's own: the socket it is attached to, whatever its name.
    [None] when the topology has no socket with that index. *)

val pcie_position : t -> Link.t -> [ `Upstream | `Downstream | `Not_pcie ]
(** Figure 1 distinguishes switch upstream (3) from downstream (4)
    links. A PCIe link is [`Upstream] when its topologically higher
    endpoint is a root port or root complex, [`Downstream] otherwise. *)

val figure1_class : t -> Link.t -> int option
(** Like {!Link.figure1_class} but resolving PCIe links to 3 or 4 via
    {!pcie_position}. *)

(** {1 Validation and export} *)

val validate : t -> (unit, string list) result
(** Checks: at least one device, graph connected, every I/O device has
    exactly one PCIe uplink, config valid. *)

val to_dot : t -> string
(** Graphviz rendering for documentation. *)

val summary : t -> string
(** One paragraph: device and link counts by kind. *)
