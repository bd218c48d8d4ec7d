let example =
  {|host my-server
config ddio=on iommu=on mps=256

socket 0 cores=32 mc=2 channels=3
socket 1 cores=32 mc=2 channels=3

# PCIe: a switch on socket 0's root port 0, devices below it
switch sw0 at 0:0
nic  nic0 on sw0 port=200
gpu  gpu0 on sw0
ssd  ssd0 on sw0

# direct-attached on other root ports
nic  nic1 at 0:1 port=200
gpu  gpu1 at 1:0 gen=5 lanes=16

# a CXL expander below socket 1's root complex
cxl  cxl0 at 1
|}

type state = {
  mutable topo : Topology.t option;
  mutable sockets : Device.t list; (* newest first; chained on creation *)
}

exception Bad of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt

let topo_of st =
  match st.topo with
  | Some t -> t
  | None ->
    (* a nameless spec still works: default host name *)
    let t = Topology.create ~name:"spec-host" () in
    st.topo <- Some t;
    t

(* key=value arguments after the positional words *)
let parse_args words =
  List.filter_map
    (fun w ->
      match String.index_opt w '=' with
      | Some i -> Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
      | None -> None)
    words

let arg args key = List.assoc_opt key args

let int_arg args key ~default =
  match arg args key with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with Some n -> n | None -> bad "%s=%s is not an integer" key v)

let float_arg args key =
  Option.map
    (fun v ->
      match float_of_string_opt v with
      | Some f -> f
      | None -> bad "%s=%s is not a number" key v)
    (arg args key)

let bool_arg args key ~default =
  match arg args key with
  | None -> default
  | Some "on" -> true
  | Some "off" -> false
  | Some v -> bad "%s=%s must be on or off" key v

let gen_arg args ~default =
  match arg args "gen" with
  | None -> default
  | Some "1" -> Pcie.Gen1
  | Some "2" -> Pcie.Gen2
  | Some "3" -> Pcie.Gen3
  | Some "4" -> Pcie.Gen4
  | Some "5" -> Pcie.Gen5
  | Some "6" -> Pcie.Gen6
  | Some v -> bad "gen=%s must be 1..6" v

(* [at S:P] -> root port; [at S] -> socket's root complex; [on NAME] ->
   existing switch. Returns the parent device id and its socket. *)
let parse_attachment st words =
  let topo = topo_of st in
  (* both [at] forms hang below the socket's root complex *)
  let root_complex spec s =
    match Topology.device_by_name topo (Printf.sprintf "rc%d" s) with
    | Some rc -> rc
    | None -> bad "at %s: socket %d has no root complex" spec s
  in
  let rec find = function
    | "at" :: spec :: _ -> (
      match String.split_on_char ':' spec with
      | [ s; p ] -> (
        match (int_of_string_opt s, int_of_string_opt p) with
        | Some s, Some p ->
          ignore (root_complex spec s);
          let rp = Builder.add_root_port topo ~socket:s ~port:p in
          ((rp : Device.t).Device.id, s)
        | _ -> bad "at %s: expected SOCKET:PORT" spec)
      | [ s ] -> (
        match int_of_string_opt s with
        | Some s -> ((root_complex spec s).Device.id, s)
        | None -> bad "at %s: expected SOCKET or SOCKET:PORT" spec)
      | _ -> bad "at %s: expected SOCKET or SOCKET:PORT" spec)
    | "on" :: name :: _ -> (
      match Topology.device_by_name topo name with
      | Some sw -> (sw.Device.id, sw.Device.socket)
      | None -> bad "on %s: no such switch" name)
    | _ :: rest -> find rest
    | [] -> bad "missing attachment: use 'at SOCKET:PORT', 'at SOCKET' or 'on SWITCH'"
  in
  find words

let handle_config st args =
  let topo = topo_of st in
  let c = Topology.config topo in
  let c =
    if bool_arg args "ddio" ~default:true then c
    else { c with Hostconfig.ddio = Hostconfig.Ddio_off }
  in
  let c =
    if bool_arg args "iommu" ~default:true then c
    else { c with Hostconfig.iommu = Hostconfig.Iommu_off }
  in
  let c = { c with Hostconfig.pcie_mps = int_arg args "mps" ~default:c.Hostconfig.pcie_mps } in
  let c = { c with Hostconfig.acs = bool_arg args "acs" ~default:c.Hostconfig.acs } in
  let c =
    {
      c with
      Hostconfig.relaxed_ordering = bool_arg args "ro" ~default:c.Hostconfig.relaxed_ordering;
    }
  in
  Topology.set_config topo c

let handle_socket st words args =
  let topo = topo_of st in
  let idx =
    match words with
    | i :: _ -> (
      match int_of_string_opt i with Some i -> i | None -> bad "socket %s: expected an index" i)
    | [] -> bad "socket: missing index"
  in
  let sock =
    Builder.add_socket topo ~idx
      ~cores:(int_arg args "cores" ~default:28)
      ~mem_controllers:(int_arg args "mc" ~default:2)
      ~channels_per_mc:(int_arg args "channels" ~default:3)
      ()
  in
  ignore (Builder.add_root_complex topo ~socket:sock);
  (match st.sockets with prev :: _ -> Builder.link_inter_socket topo prev sock | [] -> ());
  st.sockets <- sock :: st.sockets

let handle_switch st words args =
  let topo = topo_of st in
  let name = match words with n :: _ -> n | [] -> bad "switch: missing name" in
  let parent, socket = parse_attachment st words in
  let sw =
    Topology.add_device topo ~name ~kind:(Device.Pcie_switch { ports = 8 }) ~socket
  in
  Builder.attach_pcie topo ~parent ~child:sw.Device.id ~gen:(gen_arg args ~default:Pcie.Gen4)
    ~lanes:(int_arg args "lanes" ~default:16)
    ()

let handle_device st kind_word words args =
  let topo = topo_of st in
  let name = match words with n :: _ -> n | [] -> bad "%s: missing name" kind_word in
  let parent, socket = parse_attachment st words in
  let gen = gen_arg args ~default:Pcie.Gen4 in
  let lanes = int_arg args "lanes" ~default:16 in
  match kind_word with
  | "nic" ->
    let gbps =
      match float_arg args "port" with
      | Some g -> g
      | None -> bad "nic %s: needs port=<Gbps>" name
    in
    let nic =
      Topology.add_device topo ~name ~kind:(Device.Nic { inter_host_gbps = gbps }) ~socket
    in
    Builder.attach_pcie topo ~parent ~child:nic.Device.id ~gen ~lanes ();
    Builder.link_inter_host topo ~nic ~gbps
  | "gpu" | "ssd" | "fpga" ->
    let kind =
      match kind_word with
      | "gpu" -> Device.Gpu
      | "ssd" -> Device.Nvme_ssd
      | _ -> Device.Fpga
    in
    let d = Topology.add_device topo ~name ~kind ~socket in
    Builder.attach_pcie topo ~parent ~child:d.Device.id ~gen ~lanes ()
  | "cxl" ->
    (* always below the root complex of the attachment's socket *)
    ignore (Builder.add_cxl_expander topo ~name ~socket)
  | other -> bad "unknown device kind %s" other

let handle_line st line =
  let line =
    match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
  in
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> ()
  | "host" :: name :: _ ->
    if st.topo <> None then bad "host must be the first directive";
    st.topo <- Some (Topology.create ~name ())
  | "host" :: [] -> bad "host: missing name"
  | "config" :: rest -> handle_config st (parse_args rest)
  | "socket" :: rest -> handle_socket st rest (parse_args rest)
  | "switch" :: rest -> handle_switch st rest (parse_args rest)
  | (("nic" | "gpu" | "ssd" | "fpga" | "cxl") as kind) :: rest ->
    handle_device st kind rest (parse_args rest)
  | d :: _ -> bad "unknown directive %s" d

let parse text =
  let st = { topo = None; sockets = [] } in
  let lines = String.split_on_char '\n' text in
  let rec walk n = function
    | [] -> Ok ()
    | line :: rest -> (
      match handle_line st line with
      | () -> walk (n + 1) rest
      | exception Bad msg -> Error (Printf.sprintf "line %d: %s" n msg)
      | exception Invalid_argument msg -> Error (Printf.sprintf "line %d: %s" n msg))
  in
  match walk 1 lines with
  | Error e -> Error e
  | Ok () -> (
    let topo = topo_of st in
    match Topology.validate topo with
    | Ok () -> Ok topo
    | Error es -> Error ("invalid topology: " ^ String.concat "; " es))
