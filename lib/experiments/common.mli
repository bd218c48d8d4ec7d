(** Shared plumbing for the experiment harness. *)

type result = {
  id : string;  (** "E1" ... "E11". *)
  title : string;
  claim : string;  (** The paper statement this experiment operationalizes. *)
  tables : Ihnet_util.Table.t list;
  verdict : string;  (** One-line measured-vs-expected summary. *)
}

val print_result : result -> unit

val fresh_host : ?seed:int -> ?config:Ihnet_topology.Hostconfig.t -> unit -> Ihnet.Host.t
(** A fresh Figure-1 two-socket host. *)

val gb : float -> float
(** Bytes/s → GB/s for table cells. *)

val p50 : Ihnet_util.Sketch.t -> float
val p99 : Ihnet_util.Sketch.t -> float
