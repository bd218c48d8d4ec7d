type id = int

type kind =
  | Inter_socket
  | Intra_socket
  | Memory_channel
  | Pcie of Pcie.t
  | Cxl of Pcie.t
  | Inter_host

type t = {
  id : id;
  kind : kind;
  a : Device.id;
  b : Device.id;
  capacity : Ihnet_util.Units.bytes_per_s;
  base_latency : Ihnet_util.Units.ns;
}

type dir = Fwd | Rev

let figure1_class t =
  match t.kind with
  | Inter_socket -> Some 1
  | Intra_socket | Memory_channel -> Some 2
  | Pcie _ -> Some 3
  | Cxl _ -> None
  | Inter_host -> Some 5

let kind_label = function
  | Inter_socket -> "inter-socket"
  | Intra_socket -> "intra-socket"
  | Memory_channel -> "mem-channel"
  | Pcie p -> "pcie-" ^ Pcie.label p
  | Cxl p -> "cxl-" ^ Pcie.label p
  | Inter_host -> "inter-host"

let opposite = function Fwd -> Rev | Rev -> Fwd
let dir_label = function Fwd -> "fwd" | Rev -> "rev"

let pp ppf t =
  Format.fprintf ppf "link#%d[%s %d<->%d %a %a]" t.id (kind_label t.kind) t.a t.b
    Ihnet_util.Units.pp_rate t.capacity Ihnet_util.Units.pp_time t.base_latency
