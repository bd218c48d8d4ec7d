type id = int

type kind =
  | Cpu_socket of { cores : int }
  | Memory_controller of { channels : int }
  | Dimm of { channel : int }
  | Root_complex
  | Root_port
  | Pcie_switch of { ports : int }
  | Nic of { inter_host_gbps : float }
  | Gpu
  | Nvme_ssd
  | Fpga
  | Cxl_device
  | External_network

type t = { id : id; name : string; kind : kind; socket : int }

let kind_label = function
  | Cpu_socket _ -> "cpu-socket"
  | Memory_controller _ -> "mem-ctrl"
  | Dimm _ -> "dimm"
  | Root_complex -> "root-complex"
  | Root_port -> "root-port"
  | Pcie_switch _ -> "pcie-switch"
  | Nic _ -> "nic"
  | Gpu -> "gpu"
  | Nvme_ssd -> "nvme-ssd"
  | Fpga -> "fpga"
  | Cxl_device -> "cxl-device"
  | External_network -> "external-net"

let is_endpoint t =
  match t.kind with
  | Cpu_socket _ | Dimm _ | Nic _ | Gpu | Nvme_ssd | Fpga | Cxl_device | External_network ->
    true
  | Memory_controller _ | Root_complex | Root_port | Pcie_switch _ -> false

let is_socket t = match t.kind with Cpu_socket _ -> true | _ -> false

let is_io_device t =
  match t.kind with
  | Nic _ | Gpu | Nvme_ssd | Fpga | Cxl_device -> true
  | Cpu_socket _ | Memory_controller _ | Dimm _ | Root_complex | Root_port | Pcie_switch _
  | External_network ->
    false

let can_transit t =
  match t.kind with
  | Cpu_socket _ | Memory_controller _ | Root_complex | Root_port | Pcie_switch _ -> true
  (* a NIC bridges its PCIe slot to the inter-host wire *)
  | Nic _ -> true
  | Dimm _ | Gpu | Nvme_ssd | Fpga | Cxl_device | External_network -> false

let pp ppf t = Format.fprintf ppf "%s#%d(%s,s%d)" t.name t.id (kind_label t.kind) t.socket
