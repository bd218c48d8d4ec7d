(* The host-selection flags ihnetctl and ihnetd share: which preset or
   topology file to build, and the DDIO / IOMMU / MPS overrides on top
   of its configuration. [make_spec] is the one topology-file loader;
   a file that does not load exits 2 with "<path>: <error>". *)

open Cmdliner
module Api = Ihnet_api

let preset_conv =
  let parse s =
    match Api.Host_spec.preset_of_name s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  let print ppf p = Format.pp_print_string ppf (Api.Host_spec.preset_name p) in
  Arg.conv (parse, print)

let preset =
  Arg.(
    value
    & opt preset_conv Ihnet.Host.Two_socket
    & info [ "preset"; "p" ] ~docv:"PRESET" ~doc:"Host topology: two-socket, dgx, epyc, minimal.")

let ddio_flag =
  Arg.(
    value
    & opt (some (enum [ ("on", true); ("off", false) ])) None
    & info [ "ddio" ] ~docv:"on|off" ~doc:"Override the DDIO setting.")

let iommu_flag =
  Arg.(
    value
    & opt (some (enum [ ("on", true); ("off", false) ])) None
    & info [ "iommu" ] ~docv:"on|off" ~doc:"Override the IOMMU setting.")

let mps_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "mps" ] ~docv:"BYTES" ~doc:"Override the PCIe MaxPayloadSize.")

let topo_file_flag =
  Arg.(
    value
    & opt (some file) None
    & info [ "topo-file"; "f" ] ~docv:"FILE"
        ~doc:"Build the host from a topology spec file instead of a preset (see 'ihnetctl spec').")

let make_spec preset topo_file ddio iommu mps =
  let preset =
    match topo_file with
    | None -> preset
    | Some path -> (
      match Api.Host_spec.load_topo_file path with
      | Ok topo -> Ihnet.Host.Custom topo
      | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        exit 2)
  in
  Api.Host_spec.make ~preset ?ddio ?iommu ?mps ()

let spec_term =
  Term.(const make_spec $ preset $ topo_file_flag $ ddio_flag $ iommu_flag $ mps_flag)
