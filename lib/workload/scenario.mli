(** Canned workload scenarios: the paper's motivating situations as
    one-call setups.

    Each scenario configures tenants and traffic on a fabric and
    returns a handle with live metrics, so experiments, examples, the
    CLI and tests all drive the same compositions. *)

type handle = {
  name : string;
  describe : string;
  tenants : (int * string) list;  (** (id, role) of the actors. *)
  metrics : unit -> (string * string) list;
      (** Current headline metrics, label → rendered value. *)
  stop : unit -> unit;
}

val colocation : Ihnet_engine.Fabric.t -> handle
(** §2's story: a latency-sensitive KV store (tenant 1, nic0) sharing
    the root-port subtree with a 3-stream ML trainer (tenant 2,
    gpu0). Metrics: kv p50/p99/served, trainer iterations. *)

val loopback : Ihnet_engine.Fabric.t -> handle
(** Collie's aggressor: a 20 GB/s inbound RDMA victim (tenant 1) and an
    RDMA loopback (tenant 2) on the same NIC. Metrics: victim rate and
    latency, aggressor rate. *)

val all : (string * string) list
(** (name, description) of every scenario: the two above, plus
    ["ddio-thrash"] (two 200G NICs DDIO-writing into socket 0) and
    ["gray-failure"] (E12's baseline), which only {!find} builds. *)

val find : string -> (Ihnet_engine.Fabric.t -> handle) option
