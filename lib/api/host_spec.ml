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

let make ?(preset = Ihnet.Host.Two_socket) ?ddio ?iommu ?mps ?seed () =
  { preset; preset_name = preset_name preset; ddio; iommu; mps; seed }

let default = make ()

(* the overrides apply on top of the preset's own configuration: the
   builders' default, or whatever a topology file's [config] line set *)
let config t =
  let module H = T.Hostconfig in
  let c =
    match t.preset with Ihnet.Host.Custom topo -> T.Topology.config topo | _ -> H.default
  in
  let c =
    match (t.ddio, c.H.ddio) with
    | Some false, _ -> { c with H.ddio = H.Ddio_off }
    | Some true, H.Ddio_off -> { c with H.ddio = H.default.H.ddio }
    | Some true, H.Ddio_on _ | None, _ -> c
  in
  let c =
    match (t.iommu, c.H.iommu) with
    | Some false, _ -> { c with H.iommu = H.Iommu_off }
    | Some true, H.Iommu_off -> { c with H.iommu = H.default.H.iommu }
    | Some true, H.Iommu_on _ | None, _ -> c
  in
  match t.mps with Some m -> { c with H.pcie_mps = m } | None -> c

let create_host t =
  Ihnet.Host.create ~config:(config t) ?seed:t.seed t.preset
