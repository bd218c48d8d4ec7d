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

val all : (string * string) list
(** (name, description) of every scenario: the two above, plus
    ["ddio-thrash"] (two 200G NICs DDIO-writing into socket 0) and
    ["gray-failure"] (E12's baseline), which only {!find} builds. *)

val find : string -> (Ihnet_engine.Fabric.t -> handle) option
