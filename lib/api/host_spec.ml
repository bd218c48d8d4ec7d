module T = Ihnet_topology

type t = {
  preset : Ihnet.Host.preset;
  preset_name : string;
  ddio : bool option;
  iommu : bool option;
  mps : int option;
  seed : int option;
}

let preset_of_name = function
  | "two-socket" -> Ok Ihnet.Host.Two_socket
  | "dgx" -> Ok Ihnet.Host.Dgx
  | "epyc" -> Ok Ihnet.Host.Epyc
  | "minimal" -> Ok Ihnet.Host.Minimal
  | s -> Error (Printf.sprintf "unknown preset %S (two-socket|dgx|epyc|minimal)" s)

let preset_name = function
  | Ihnet.Host.Two_socket -> "two-socket"
  | Ihnet.Host.Dgx -> "dgx"
  | Ihnet.Host.Epyc -> "epyc"
  | Ihnet.Host.Minimal -> "minimal"
  | Ihnet.Host.Custom _ -> "custom"

let load_topo_file path =
  match
    In_channel.with_open_text path In_channel.input_all
  with
  | exception Sys_error e -> Error e
  | text -> T.Spec.parse text

let make ?(preset = Ihnet.Host.Two_socket) ?topo_file ?ddio ?iommu ?mps ?seed () =
  let preset =
    match topo_file with
    | None -> preset
    | Some path -> (
      match load_topo_file path with
      | Ok topo -> Ihnet.Host.Custom topo
      | Error e -> failwith (path ^ ": " ^ e))
  in
  { preset; preset_name = preset_name preset; ddio; iommu; mps; seed }

let default = make ()

let config t =
  let c = T.Hostconfig.default in
  let c =
    match t.ddio with
    | Some false -> { c with T.Hostconfig.ddio = T.Hostconfig.Ddio_off }
    | Some true | None -> c
  in
  let c =
    match t.iommu with
    | Some false -> { c with T.Hostconfig.iommu = T.Hostconfig.Iommu_off }
    | Some true | None -> c
  in
  match t.mps with Some m -> { c with T.Hostconfig.pcie_mps = m } | None -> c

let create_host t =
  Ihnet.Host.create ~config:(config t) ?seed:t.seed t.preset

let topology t =
  let config = config t in
  match t.preset with
  | Ihnet.Host.Two_socket -> T.Builder.two_socket_server ~config ()
  | Ihnet.Host.Dgx -> T.Builder.dgx_like ~config ()
  | Ihnet.Host.Epyc -> T.Builder.epyc_like ~config ()
  | Ihnet.Host.Minimal | Ihnet.Host.Custom _ -> T.Builder.minimal ~config ()

let device_id topo name =
  match T.Topology.device_by_name topo name with
  | Some d -> d.T.Device.id
  | None -> failwith ("no device " ^ name)
