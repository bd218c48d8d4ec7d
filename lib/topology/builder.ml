module U = Ihnet_util.Units

(* Figure 1 mid-range constants. *)
let inter_socket_bw = U.gbytes_per_s 40.0
let inter_socket_lat = 150.0
let mesh_mc_bw = U.gbytes_per_s 60.0
let mesh_mc_lat = 40.0
let mesh_rc_bw = U.gbytes_per_s 100.0
let mesh_rc_lat = 20.0
let ddr_channel_bw = U.gbytes_per_s 25.6
let ddr_channel_lat = 60.0
let rc_rp_bw = U.gbytes_per_s 64.0
let rc_rp_lat = 5.0
let pcie_hop_lat = 100.0
let inter_host_lat = 1500.0

(* {1 Low-level assembly} *)

let add_socket topo ~idx ?(cores = 28) ~mem_controllers ~channels_per_mc () =
  let socket =
    Topology.add_device topo
      ~name:(Printf.sprintf "socket%d" idx)
      ~kind:(Device.Cpu_socket { cores })
      ~socket:idx
  in
  for m = 0 to mem_controllers - 1 do
    let mc =
      Topology.add_device topo
        ~name:(Printf.sprintf "mc%d.%d" idx m)
        ~kind:(Device.Memory_controller { channels = channels_per_mc })
        ~socket:idx
    in
    ignore
      (Topology.add_link topo ~kind:Link.Intra_socket ~a:socket.Device.id ~b:mc.Device.id
         ~capacity:mesh_mc_bw ~base_latency:mesh_mc_lat);
    for c = 0 to channels_per_mc - 1 do
      let dimm =
        Topology.add_device topo
          ~name:(Printf.sprintf "dimm%d.%d.%d" idx m c)
          ~kind:(Device.Dimm { channel = c })
          ~socket:idx
      in
      ignore
        (Topology.add_link topo ~kind:Link.Memory_channel ~a:mc.Device.id ~b:dimm.Device.id
           ~capacity:ddr_channel_bw ~base_latency:ddr_channel_lat)
    done
  done;
  socket

let add_root_complex topo ~socket:(sock : Device.t) =
  let rc =
    Topology.add_device topo
      ~name:(Printf.sprintf "rc%d" sock.Device.socket)
      ~kind:Device.Root_complex ~socket:sock.Device.socket
  in
  ignore
    (Topology.add_link topo ~kind:Link.Intra_socket ~a:sock.Device.id ~b:rc.Device.id
       ~capacity:mesh_rc_bw ~base_latency:mesh_rc_lat);
  rc

let add_root_port topo ~socket ~port =
  let name = Printf.sprintf "rp%d.%d" socket port in
  match Topology.device_by_name topo name with
  | Some rp -> rp
  | None -> (
    match Topology.device_by_name topo (Printf.sprintf "rc%d" socket) with
    | None -> invalid_arg "Builder.add_root_port: socket has no root complex"
    | Some rc ->
      let rp = Topology.add_device topo ~name ~kind:Device.Root_port ~socket in
      ignore
        (Topology.add_link topo ~kind:Link.Intra_socket ~a:rc.Device.id ~b:rp.Device.id
           ~capacity:rc_rp_bw ~base_latency:rc_rp_lat);
      rp)

let link_inter_socket topo (a : Device.t) (b : Device.t) =
  ignore
    (Topology.add_link topo ~kind:Link.Inter_socket ~a:a.Device.id ~b:b.Device.id
       ~capacity:inter_socket_bw ~base_latency:inter_socket_lat)

let attach_pcie topo ~parent ~child ?(gen = Pcie.Gen4) ?(lanes = 16) () =
  let pcie = Pcie.v gen lanes in
  ignore
    (Topology.add_link topo ~kind:(Link.Pcie pcie) ~a:parent ~b:child
       ~capacity:(Pcie.raw_bandwidth pcie) ~base_latency:pcie_hop_lat)

(* the external-network device, created on first use *)
let ensure_ext topo =
  match Topology.device_by_name topo "ext" with
  | Some d -> d.Device.id
  | None ->
    (Topology.add_device topo ~name:"ext" ~kind:Device.External_network ~socket:(-1)).Device.id

let link_inter_host topo ~nic:(nic : Device.t) ~gbps =
  let ext = ensure_ext topo in
  ignore
    (Topology.add_link topo ~kind:Link.Inter_host ~a:nic.Device.id ~b:ext ~capacity:(U.gbps gbps)
       ~base_latency:inter_host_lat)

let add_cxl_expander topo ~name ~socket =
  let rc =
    match Topology.device_by_name topo (Printf.sprintf "rc%d" socket) with
    | Some d -> d
    | None -> invalid_arg "Builder.add_cxl_expander: socket has no root complex"
  in
  let cxl = Topology.add_device topo ~name ~kind:Device.Cxl_device ~socket in
  let phy = Pcie.v Pcie.Gen5 8 in
  ignore
    (Topology.add_link topo ~kind:(Link.Cxl phy) ~a:rc.Device.id ~b:cxl.Device.id
       ~capacity:(Pcie.raw_bandwidth phy) ~base_latency:25.0);
  cxl

(* {1 Canned hosts} *)

(* socket + rc + [ports] root ports *)
let socket_with_ports topo ~idx ~mem_controllers ~channels_per_mc ~ports =
  let sock = add_socket topo ~idx ~mem_controllers ~channels_per_mc () in
  ignore (add_root_complex topo ~socket:sock);
  let rps = List.init ports (fun p -> add_root_port topo ~socket:idx ~port:p) in
  (sock, rps)

let add_nic topo ~name ~socket ~gbps ~parent ?(gen = Pcie.Gen4) ?(lanes = 16) () =
  let nic =
    Topology.add_device topo ~name ~kind:(Device.Nic { inter_host_gbps = gbps }) ~socket
  in
  attach_pcie topo ~parent ~child:nic.Device.id ~gen ~lanes ();
  link_inter_host topo ~nic ~gbps;
  nic

let two_socket_server ?config () =
  let topo = Topology.create ?config ~name:"two-socket-server" () in
  ignore (ensure_ext topo);
  let s0, rps0 = socket_with_ports topo ~idx:0 ~mem_controllers:2 ~channels_per_mc:3 ~ports:2 in
  let s1, rps1 = socket_with_ports topo ~idx:1 ~mem_controllers:2 ~channels_per_mc:3 ~ports:2 in
  link_inter_socket topo s0 s1;
  (match rps0 with
  | [ rp00; rp01 ] ->
    let sw =
      Topology.add_device topo ~name:"pciesw0" ~kind:(Device.Pcie_switch { ports = 4 }) ~socket:0
    in
    attach_pcie topo ~parent:rp00.Device.id ~child:sw.Device.id ();
    ignore (add_nic topo ~name:"nic0" ~socket:0 ~gbps:200.0 ~parent:sw.Device.id ());
    let gpu0 = Topology.add_device topo ~name:"gpu0" ~kind:Device.Gpu ~socket:0 in
    attach_pcie topo ~parent:sw.Device.id ~child:gpu0.Device.id ();
    let ssd0 = Topology.add_device topo ~name:"ssd0" ~kind:Device.Nvme_ssd ~socket:0 in
    attach_pcie topo ~parent:sw.Device.id ~child:ssd0.Device.id ();
    ignore (add_nic topo ~name:"nic1" ~socket:0 ~gbps:200.0 ~parent:rp01.Device.id ())
  | _ -> assert false);
  (match rps1 with
  | [ rp10; rp11 ] ->
    let sw =
      Topology.add_device topo ~name:"pciesw1" ~kind:(Device.Pcie_switch { ports = 4 }) ~socket:1
    in
    attach_pcie topo ~parent:rp10.Device.id ~child:sw.Device.id ();
    let gpu1 = Topology.add_device topo ~name:"gpu1" ~kind:Device.Gpu ~socket:1 in
    attach_pcie topo ~parent:sw.Device.id ~child:gpu1.Device.id ();
    let ssd1 = Topology.add_device topo ~name:"ssd1" ~kind:Device.Nvme_ssd ~socket:1 in
    attach_pcie topo ~parent:sw.Device.id ~child:ssd1.Device.id ();
    ignore (add_nic topo ~name:"nic2" ~socket:1 ~gbps:200.0 ~parent:rp11.Device.id ())
  | _ -> assert false);
  topo

let dgx_like ?config () =
  let topo = Topology.create ?config ~name:"dgx-like" () in
  ignore (ensure_ext topo);
  let s0, rps0 = socket_with_ports topo ~idx:0 ~mem_controllers:4 ~channels_per_mc:2 ~ports:2 in
  let s1, rps1 = socket_with_ports topo ~idx:1 ~mem_controllers:4 ~channels_per_mc:2 ~ports:2 in
  ignore
    (Topology.add_link topo ~kind:Link.Inter_socket ~a:s0.Device.id ~b:s1.Device.id
       ~capacity:(U.gbytes_per_s 72.0) ~base_latency:130.0);
  List.iteri
    (fun i rps ->
      List.iteri
        (fun p (rp : Device.t) ->
          let swi = (i * 2) + p in
          let sw =
            Topology.add_device topo
              ~name:(Printf.sprintf "pciesw%d" swi)
              ~kind:(Device.Pcie_switch { ports = 5 })
              ~socket:i
          in
          attach_pcie topo ~parent:rp.Device.id ~child:sw.Device.id ();
          for g = 0 to 1 do
            let gid = (swi * 2) + g in
            let gpu =
              Topology.add_device topo ~name:(Printf.sprintf "gpu%d" gid) ~kind:Device.Gpu
                ~socket:i
            in
            attach_pcie topo ~parent:sw.Device.id ~child:gpu.Device.id ();
            ignore
              (add_nic topo
                 ~name:(Printf.sprintf "nic%d" gid)
                 ~socket:i ~gbps:200.0 ~parent:sw.Device.id ())
          done)
        rps)
    [ rps0; rps1 ];
  topo

let epyc_like ?config () =
  let topo = Topology.create ?config ~name:"epyc-like" () in
  ignore (ensure_ext topo);
  let s0, rps0 = socket_with_ports topo ~idx:0 ~mem_controllers:4 ~channels_per_mc:2 ~ports:4 in
  let s1, rps1 = socket_with_ports topo ~idx:1 ~mem_controllers:4 ~channels_per_mc:2 ~ports:4 in
  ignore
    (Topology.add_link topo ~kind:Link.Inter_socket ~a:s0.Device.id ~b:s1.Device.id
       ~capacity:(U.gbytes_per_s 50.0) ~base_latency:200.0);
  List.iteri
    (fun i rps ->
      List.iteri
        (fun p (rp : Device.t) ->
          match p with
          | 0 ->
            ignore
              (add_nic topo ~name:(Printf.sprintf "nic%d" i) ~socket:i ~gbps:200.0
                 ~parent:rp.Device.id ())
          | 1 ->
            let d =
              Topology.add_device topo ~name:(Printf.sprintf "gpu%d" i) ~kind:Device.Gpu ~socket:i
            in
            attach_pcie topo ~parent:rp.Device.id ~child:d.Device.id ()
          | 2 ->
            let d =
              Topology.add_device topo
                ~name:(Printf.sprintf "ssd%d" i)
                ~kind:Device.Nvme_ssd ~socket:i
            in
            attach_pcie topo ~parent:rp.Device.id ~child:d.Device.id ()
          | _ ->
            let d =
              Topology.add_device topo
                ~name:(Printf.sprintf "fpga%d" i)
                ~kind:Device.Fpga ~socket:i
            in
            attach_pcie topo ~parent:rp.Device.id ~child:d.Device.id ())
        rps)
    [ rps0; rps1 ];
  topo

let minimal ?config () =
  let topo = Topology.create ?config ~name:"minimal" () in
  ignore (ensure_ext topo);
  let _, rps = socket_with_ports topo ~idx:0 ~mem_controllers:1 ~channels_per_mc:1 ~ports:1 in
  (match rps with
  | [ rp ] -> ignore (add_nic topo ~name:"nic0" ~socket:0 ~gbps:200.0 ~parent:rp.Device.id ())
  | _ -> assert false);
  topo

let two_socket_with_cxl ?config () =
  let topo = two_socket_server ?config () in
  ignore (add_cxl_expander topo ~name:"cxl0" ~socket:0);
  topo

let scaled ?config ~sockets ~switches_per_socket ~devices_per_switch () =
  if not (sockets > 0 && switches_per_socket >= 0 && devices_per_switch >= 0) then begin
    let field, v, bound =
      if sockets <= 0 then ("sockets", sockets, "> 0")
      else if switches_per_socket < 0 then ("switches_per_socket", switches_per_socket, ">= 0")
      else ("devices_per_switch", devices_per_switch, ">= 0")
    in
    invalid_arg (Printf.sprintf "Builder.scaled: %s must be %s (got %d)" field bound v)
  end;
  let topo = Topology.create ?config ~name:"scaled" () in
  ignore (ensure_ext topo);
  let socks =
    List.init sockets (fun i ->
        socket_with_ports topo ~idx:i ~mem_controllers:2 ~channels_per_mc:2
          ~ports:switches_per_socket)
  in
  let rec chain = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      link_inter_socket topo a b;
      chain rest
    | [ _ ] | [] -> ()
  in
  chain socks;
  let dev_counter = ref 0 in
  List.iteri
    (fun i (_, rps) ->
      List.iteri
        (fun p (rp : Device.t) ->
          let sw =
            Topology.add_device topo
              ~name:(Printf.sprintf "pciesw%d.%d" i p)
              ~kind:(Device.Pcie_switch { ports = devices_per_switch + 1 })
              ~socket:i
          in
          attach_pcie topo ~parent:rp.Device.id ~child:sw.Device.id ();
          for d = 0 to devices_per_switch - 1 do
            let n = !dev_counter in
            incr dev_counter;
            match d mod 3 with
            | 0 ->
              ignore
                (add_nic topo ~name:(Printf.sprintf "nic%d" n) ~socket:i ~gbps:200.0
                   ~parent:sw.Device.id ())
            | 1 ->
              let g =
                Topology.add_device topo ~name:(Printf.sprintf "gpu%d" n) ~kind:Device.Gpu
                  ~socket:i
              in
              attach_pcie topo ~parent:sw.Device.id ~child:g.Device.id ()
            | _ ->
              let s =
                Topology.add_device topo
                  ~name:(Printf.sprintf "ssd%d" n)
                  ~kind:Device.Nvme_ssd ~socket:i
              in
              attach_pcie topo ~parent:sw.Device.id ~child:s.Device.id ()
          done)
        rps)
    socks;
  topo
