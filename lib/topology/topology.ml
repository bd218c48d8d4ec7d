type t = {
  name : string;
  mutable config : Hostconfig.t;
  mutable devices : Device.t array; (* index = id *)
  mutable links : Link.t array; (* index = id *)
  mutable ndevices : int;
  mutable nlinks : int;
  by_name : (string, Device.id) Hashtbl.t;
  mutable adjacency : (Link.t * Device.id) list array; (* device id -> incident *)
}

let create ?(config = Hostconfig.default) ~name () =
  {
    name;
    config;
    devices = [||];
    links = [||];
    ndevices = 0;
    nlinks = 0;
    by_name = Hashtbl.create 64;
    adjacency = [||];
  }

let name t = t.name
let config t = t.config
let set_config t c = t.config <- c

let grow arr len dummy = if len = Array.length arr then
    (let n = Array.make (max 16 (2 * len)) dummy in
     Array.blit arr 0 n 0 len;
     n)
  else arr

let add_device t ~name ~kind ~socket =
  if Hashtbl.mem t.by_name name then invalid_arg ("Topology.add_device: duplicate name " ^ name);
  let d = { Device.id = t.ndevices; name; kind; socket } in
  t.devices <- grow t.devices t.ndevices d;
  t.adjacency <-
    (if t.ndevices = Array.length t.adjacency then (
       let n = Array.make (max 16 (2 * t.ndevices)) [] in
       Array.blit t.adjacency 0 n 0 t.ndevices;
       n)
     else t.adjacency);
  t.devices.(t.ndevices) <- d;
  t.adjacency.(t.ndevices) <- [];
  t.ndevices <- t.ndevices + 1;
  Hashtbl.add t.by_name name d.id;
  d

let device t id =
  if id < 0 || id >= t.ndevices then raise Not_found;
  t.devices.(id)

let device_by_name t n =
  Option.map (fun id -> t.devices.(id)) (Hashtbl.find_opt t.by_name n)

let device_named t n =
  match device_by_name t n with Some d -> d | None -> invalid_arg ("no device " ^ n)

let add_link t ~kind ~a ~b ~capacity ~base_latency =
  if a < 0 || a >= t.ndevices || b < 0 || b >= t.ndevices then
    invalid_arg "Topology.add_link: unknown endpoint";
  if a = b then invalid_arg "Topology.add_link: self-loop";
  if capacity <= 0.0 then invalid_arg "Topology.add_link: capacity must be positive";
  if base_latency < 0.0 then invalid_arg "Topology.add_link: negative latency";
  let l = { Link.id = t.nlinks; kind; a; b; capacity; base_latency } in
  t.links <- grow t.links t.nlinks l;
  t.links.(t.nlinks) <- l;
  t.nlinks <- t.nlinks + 1;
  t.adjacency.(a) <- (l, b) :: t.adjacency.(a);
  t.adjacency.(b) <- (l, a) :: t.adjacency.(b);
  l

let link t id =
  if id < 0 || id >= t.nlinks then raise Not_found;
  t.links.(id)

let device_count t = t.ndevices
let link_count t = t.nlinks
let devices t = Array.to_list (Array.sub t.devices 0 t.ndevices)
let links t = Array.to_list (Array.sub t.links 0 t.nlinks)
let find_devices t pred = List.filter pred (devices t)
let neighbors t id = List.rev t.adjacency.(id)

let links_between t a b =
  List.filter_map (fun (l, peer) -> if peer = b then Some l else None) t.adjacency.(a)

let link_named t a b =
  let da = device_named t a in
  let db = device_named t b in
  match links_between t da.Device.id db.Device.id with
  | l :: _ -> l
  | [] -> invalid_arg (Printf.sprintf "no link between %s and %s" a b)

let sockets t = find_devices t Device.is_socket

let home_socket t (d : Device.t) =
  List.find_opt (fun (s : Device.t) -> s.socket = d.socket) (sockets t)

(* "Higher" in the PCIe hierarchy: root complex > root port > switch >
   endpoint. Upstream link = the one whose upper endpoint is a root
   port/complex. *)
let pcie_rank t id =
  match (device t id).kind with
  | Device.Root_complex -> 3
  | Device.Root_port -> 2
  | Device.Pcie_switch _ -> 1
  | _ -> 0

let pcie_position t (l : Link.t) =
  match l.kind with
  | Link.Pcie _ ->
    let ra = pcie_rank t l.a and rb = pcie_rank t l.b in
    if max ra rb >= 2 then `Upstream else `Downstream
  | Link.Cxl _ | Link.Inter_socket | Link.Intra_socket | Link.Memory_channel
  | Link.Inter_host ->
    `Not_pcie

let figure1_class t (l : Link.t) =
  match l.kind with
  | Link.Pcie _ -> (
    match pcie_position t l with
    | `Upstream -> Some 3
    | `Downstream -> Some 4
    | `Not_pcie -> assert false)
  | _ -> Link.figure1_class l

let connected t =
  if t.ndevices = 0 then true
  else begin
    let seen = Array.make t.ndevices false in
    let rec dfs id =
      if not seen.(id) then begin
        seen.(id) <- true;
        List.iter (fun (_, peer) -> dfs peer) t.adjacency.(id)
      end
    in
    dfs 0;
    Array.for_all Fun.id (Array.sub seen 0 t.ndevices)
  end

let validate t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  if t.ndevices = 0 then err "topology has no devices";
  if t.ndevices > 0 && not (connected t) then err "topology is not connected";
  List.iter
    (fun d ->
      if Device.is_io_device d then begin
        let uplinks =
          List.filter
            (fun (l, _) ->
              match l.Link.kind with Link.Pcie _ | Link.Cxl _ -> true | _ -> false)
            t.adjacency.(d.Device.id)
        in
        if List.length uplinks <> 1 then
          err "i/o device %s must have exactly one PCIe/CXL uplink (has %d)" d.Device.name
            (List.length uplinks)
      end)
    (devices t);
  (match Hostconfig.validate t.config with Ok () -> () | Error e -> err "config: %s" e);
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph %S {\n  node [shape=box];\n" t.name);
  List.iter
    (fun (d : Device.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  d%d [label=\"%s\\n%s\"];\n" d.id d.name (Device.kind_label d.kind)))
    (devices t);
  List.iter
    (fun (l : Link.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  d%d -- d%d [label=\"%s\"];\n" l.a l.b (Link.kind_label l.kind)))
    (links t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let summary t =
  let count_by label_of items =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun x ->
        let k = label_of x in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      items;
    Hashtbl.fold (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc) tbl []
    |> List.sort compare |> String.concat " "
  in
  Printf.sprintf "%s: %d devices (%s), %d links (%s)" t.name t.ndevices
    (count_by (fun (d : Device.t) -> Device.kind_label d.kind) (devices t))
    t.nlinks
    (count_by (fun (l : Link.t) -> Link.kind_label l.kind) (links t))
