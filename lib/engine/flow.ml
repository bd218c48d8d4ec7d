type cls = Payload | Monitoring | Heartbeat | Probe | Induced
type size = Bytes of float | Unbounded
type state = Running | Completed | Stopped

type t = {
  id : int;
  tenant : int;
  cls : cls;
  path : Ihnet_topology.Path.t;
  size : size;
  demand : float;
  payload_bytes : int;
  working_set_pages : int;
  llc_target : bool;
  started_at : Ihnet_util.Units.ns;
  mutable weight : float;
  mutable floor : float;
  mutable cap : float;
  mutable rate : float;
  mutable remaining : float;
  mutable transferred : float;
  mutable state : state;
  mutable completed_at : Ihnet_util.Units.ns;
  on_complete : (t -> unit) option;
}

let cls_label = function
  | Payload -> "payload"
  | Monitoring -> "monitoring"
  | Heartbeat -> "heartbeat"
  | Probe -> "probe"
  | Induced -> "induced"

let cls_of_label = function
  | "payload" -> Some Payload
  | "monitoring" -> Some Monitoring
  | "heartbeat" -> Some Heartbeat
  | "probe" -> Some Probe
  | "induced" -> Some Induced
  | _ -> None

let effective_demand t = Float.min t.demand t.cap

let eta_ns t =
  if t.rate <= 0.0 || t.remaining = infinity then infinity
  else t.remaining /. t.rate *. 1e9

let duration t =
  match t.state with
  | Completed -> t.completed_at -. t.started_at
  | Running | Stopped -> invalid_arg "Flow.duration: flow not completed"

let pp ppf t =
  Format.fprintf ppf "flow#%d[t%d %s rate=%a %s]" t.id t.tenant (cls_label t.cls)
    Ihnet_util.Units.pp_rate t.rate
    (match t.state with Running -> "running" | Completed -> "done" | Stopped -> "stopped")
