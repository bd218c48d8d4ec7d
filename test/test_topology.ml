(* Unit and property tests for ihnet_topology. *)

open Ihnet_topology
module U = Ihnet_util.Units

let tc name f = Alcotest.test_case name `Quick f
let check_close ?(eps = 1e-6) msg expected actual = Alcotest.(check (float eps)) msg expected actual

(* {1 PCIe model} *)

let pcie_tests =
  [
    tc "gen4 x16 raw bandwidth matches Figure 1's ~256 Gbps" (fun () ->
        let bw = Pcie.raw_bandwidth (Pcie.v Pcie.Gen4 16) in
        let gbps = U.to_gbps bw in
        Alcotest.(check bool) "in 250..256" true (gbps > 250.0 && gbps < 256.0));
    tc "gen3 x16 is ~126 Gbps" (fun () ->
        let gbps = U.to_gbps (Pcie.raw_bandwidth (Pcie.v Pcie.Gen3 16)) in
        Alcotest.(check bool) "in 120..128" true (gbps > 120.0 && gbps < 128.0));
    tc "gen1/2 pay 8b/10b" (fun () ->
        check_close "0.8" 0.8 (Pcie.encoding_efficiency Pcie.Gen1);
        check_close "0.8" 0.8 (Pcie.encoding_efficiency Pcie.Gen2));
    tc "bandwidth scales with lanes" (fun () ->
        let x8 = Pcie.raw_bandwidth (Pcie.v Pcie.Gen4 8) in
        let x16 = Pcie.raw_bandwidth (Pcie.v Pcie.Gen4 16) in
        check_close ~eps:1.0 "double" (2.0 *. x8) x16);
    tc "payload efficiency improves with MPS" (fun () ->
        let e128 = Pcie.payload_efficiency ~mps:128 in
        let e512 = Pcie.payload_efficiency ~mps:512 in
        Alcotest.(check bool) "monotone" true (e512 > e128);
        Alcotest.(check bool) "sub-unit" true (e512 < 1.0));
    (* the coefficient a flow's PCIe hops cost comes from here, and a
       bad MaxPayloadSize must name itself, not trip an assert *)
    tc "payload efficiency refuses an MPS that is not positive, naming it" (fun () ->
        List.iter
          (fun mps ->
            Alcotest.check_raises (string_of_int mps)
              (Invalid_argument (Printf.sprintf "Pcie.payload_efficiency: mps must be > 0 (got %d)" mps))
              (fun () -> ignore (Pcie.payload_efficiency ~mps)))
          [ 0; -256 ]);
    tc "rejects bad lane counts" (fun () ->
        Alcotest.check_raises "x3" (Invalid_argument "Pcie.v: lanes must be one of 1,2,4,8,16")
          (fun () -> ignore (Pcie.v Pcie.Gen4 3)));
  ]

(* {1 Hostconfig} *)

let hostconfig_tests =
  [
    tc "default validates" (fun () ->
        match Hostconfig.validate Hostconfig.default with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    tc "rejects non-power-of-two MPS" (fun () ->
        let c = { Hostconfig.default with Hostconfig.pcie_mps = 200 } in
        Alcotest.(check bool) "error" true (Result.is_error (Hostconfig.validate c)));
    tc "rejects io_ways > llc_ways" (fun () ->
        let c =
          {
            Hostconfig.default with
            Hostconfig.ddio = Hostconfig.Ddio_on { llc_ways = 4; io_ways = 8; way_size = 1e6 };
          }
        in
        Alcotest.(check bool) "error" true (Result.is_error (Hostconfig.validate c)));
    tc "rejects negative interrupt moderation" (fun () ->
        let c = { Hostconfig.default with Hostconfig.interrupt_moderation = -1.0 } in
        Alcotest.(check bool) "error" true (Result.is_error (Hostconfig.validate c)));
  ]

(* {1 Graph construction} *)

let graph_tests =
  [
    tc "add_device assigns dense ids and unique names" (fun () ->
        let topo = Topology.create ~name:"t" () in
        let a = Topology.add_device topo ~name:"a" ~kind:Device.Gpu ~socket:0 in
        let b = Topology.add_device topo ~name:"b" ~kind:Device.Gpu ~socket:0 in
        Alcotest.(check int) "id0" 0 a.Device.id;
        Alcotest.(check int) "id1" 1 b.Device.id;
        Alcotest.check_raises "dup" (Invalid_argument "Topology.add_device: duplicate name a")
          (fun () -> ignore (Topology.add_device topo ~name:"a" ~kind:Device.Gpu ~socket:0)));
    tc "add_link validates endpoints" (fun () ->
        let topo = Topology.create ~name:"t" () in
        let a = Topology.add_device topo ~name:"a" ~kind:Device.Gpu ~socket:0 in
        Alcotest.check_raises "unknown" (Invalid_argument "Topology.add_link: unknown endpoint")
          (fun () ->
            ignore
              (Topology.add_link topo ~kind:Link.Intra_socket ~a:a.Device.id ~b:99 ~capacity:1.0
                 ~base_latency:0.0));
        Alcotest.check_raises "self" (Invalid_argument "Topology.add_link: self-loop") (fun () ->
            ignore
              (Topology.add_link topo ~kind:Link.Intra_socket ~a:a.Device.id ~b:a.Device.id
                 ~capacity:1.0 ~base_latency:0.0)));
    tc "neighbors lists incident links" (fun () ->
        let topo = Topology.create ~name:"t" () in
        let a = Topology.add_device topo ~name:"a" ~kind:Device.Gpu ~socket:0 in
        let b = Topology.add_device topo ~name:"b" ~kind:Device.Gpu ~socket:0 in
        let c = Topology.add_device topo ~name:"c" ~kind:Device.Gpu ~socket:0 in
        ignore
          (Topology.add_link topo ~kind:Link.Intra_socket ~a:a.Device.id ~b:b.Device.id
             ~capacity:1.0 ~base_latency:1.0);
        ignore
          (Topology.add_link topo ~kind:Link.Intra_socket ~a:a.Device.id ~b:c.Device.id
             ~capacity:1.0 ~base_latency:1.0);
        Alcotest.(check int) "two" 2 (List.length (Topology.neighbors topo a.Device.id));
        Alcotest.(check int) "one" 1 (List.length (Topology.neighbors topo b.Device.id)));
    tc "validate rejects disconnected graphs" (fun () ->
        let topo = Topology.create ~name:"t" () in
        ignore (Topology.add_device topo ~name:"a" ~kind:Device.Gpu ~socket:0);
        ignore (Topology.add_device topo ~name:"b" ~kind:Device.Gpu ~socket:0);
        Alcotest.(check bool) "error" true (Result.is_error (Topology.validate topo)));
    tc "validate rejects empty topology" (fun () ->
        let topo = Topology.create ~name:"t" () in
        Alcotest.(check bool) "error" true (Result.is_error (Topology.validate topo)));
  ]

(* {1 Builders} *)

let builder_tests =
  [
    tc "two_socket_server validates" (fun () ->
        match Topology.validate (Builder.two_socket_server ()) with
        | Ok () -> ()
        | Error es -> Alcotest.fail (String.concat "; " es));
    tc "two_socket_server has Figure 1's inventory" (fun () ->
        let topo = Builder.two_socket_server () in
        let count k =
          List.length
            (Topology.find_devices topo (fun d -> Device.kind_label d.Device.kind = k))
        in
        Alcotest.(check int) "sockets" 2 (count "cpu-socket");
        Alcotest.(check int) "switches" 2 (count "pcie-switch");
        Alcotest.(check int) "nics" 3 (count "nic");
        Alcotest.(check int) "gpus" 2 (count "gpu");
        Alcotest.(check int) "ssds" 2 (count "nvme-ssd");
        Alcotest.(check int) "dimms" 12 (count "dimm"));
    tc "dgx_like has 8 GPUs and 8 NICs" (fun () ->
        let topo = Builder.dgx_like () in
        let count p = List.length (Topology.find_devices topo p) in
        Alcotest.(check int) "gpus" 8
          (count (fun d -> match d.Device.kind with Device.Gpu -> true | _ -> false));
        Alcotest.(check int) "nics" 8
          (count (fun d -> match d.Device.kind with Device.Nic _ -> true | _ -> false));
        Alcotest.(check bool) "valid" true (Result.is_ok (Topology.validate topo)));
    tc "epyc_like validates" (fun () ->
        Alcotest.(check bool) "valid" true
          (Result.is_ok (Topology.validate (Builder.epyc_like ()))));
    tc "minimal validates" (fun () ->
        Alcotest.(check bool) "valid" true (Result.is_ok (Topology.validate (Builder.minimal ()))));
    tc "scaled grows with parameters" (fun () ->
        let small = Builder.scaled ~sockets:1 ~switches_per_socket:1 ~devices_per_switch:2 () in
        let large = Builder.scaled ~sockets:4 ~switches_per_socket:4 ~devices_per_switch:4 () in
        Alcotest.(check bool) "more devices" true
          (Topology.device_count large > Topology.device_count small);
        Alcotest.(check bool) "valid small" true (Result.is_ok (Topology.validate small));
        Alcotest.(check bool) "valid large" true (Result.is_ok (Topology.validate large)));
    tc "scaled refuses a bad count, naming the field" (fun () ->
        List.iter
          (fun (sockets, switches_per_socket, devices_per_switch, msg) ->
            Alcotest.check_raises msg (Invalid_argument ("Builder.scaled: " ^ msg)) (fun () ->
                ignore (Builder.scaled ~sockets ~switches_per_socket ~devices_per_switch ())))
          [
            (0, 1, 1, "sockets must be > 0 (got 0)");
            (-2, 1, 1, "sockets must be > 0 (got -2)");
            (1, -1, 1, "switches_per_socket must be >= 0 (got -1)");
            (1, 1, -4, "devices_per_switch must be >= 0 (got -4)");
          ]);
    tc "pcie upstream/downstream classification" (fun () ->
        let topo = Builder.two_socket_server () in
        let sw = (Topology.device_named topo "pciesw0").Device.id in
        let rp = (Topology.device_named topo "rp0.0").Device.id in
        let nic = (Topology.device_named topo "nic0").Device.id in
        (match Topology.links_between topo rp sw with
        | [ l ] ->
          Alcotest.(check bool) "upstream" true (Topology.pcie_position topo l = `Upstream);
          Alcotest.(check (option int)) "class 3" (Some 3) (Topology.figure1_class topo l)
        | _ -> Alcotest.fail "expected one rp-sw link");
        match Topology.links_between topo sw nic with
        | [ l ] ->
          Alcotest.(check bool) "downstream" true (Topology.pcie_position topo l = `Downstream);
          Alcotest.(check (option int)) "class 4" (Some 4) (Topology.figure1_class topo l)
        | _ -> Alcotest.fail "expected one sw-nic link");
    tc "to_dot mentions every device" (fun () ->
        let topo = Builder.minimal () in
        let dot = Topology.to_dot topo in
        Alcotest.(check bool) "nonempty" true (String.length dot > 100));
  ]

(* {1 Routing} *)

let routing_tests =
  [
    tc "shortest path nic0 -> dimm crosses expected devices" (fun () ->
        let topo = Builder.two_socket_server () in
        let nic = (Topology.device_named topo "nic0").Device.id in
        let dimm = (Topology.device_named topo "dimm0.0.0").Device.id in
        match Routing.shortest_path topo nic dimm with
        | None -> Alcotest.fail "no path"
        | Some p ->
          Alcotest.(check bool) "well formed" true (Path.well_formed topo p);
          let names =
            List.map (fun id -> (Topology.device topo id).Device.name) (Path.devices p)
          in
          Alcotest.(check bool) "via switch" true (List.mem "pciesw0" names);
          Alcotest.(check bool) "via socket" true (List.mem "socket0" names));
    tc "trivial path when src = dst" (fun () ->
        let topo = Builder.minimal () in
        let nic = (Topology.device_named topo "nic0").Device.id in
        match Routing.shortest_path topo nic nic with
        | Some p -> Alcotest.(check int) "no hops" 0 (Path.hop_count p)
        | None -> Alcotest.fail "expected trivial path");
    tc "avoid breaks the only route" (fun () ->
        let topo = Builder.minimal () in
        let nic = (Topology.device_named topo "nic0").Device.id in
        let rp = (Topology.device_named topo "rp0.0").Device.id in
        match Topology.links_between topo rp nic with
        | [ l ] ->
          let sock = (Topology.device_named topo "socket0").Device.id in
          Alcotest.(check bool) "unreachable" true
            (Routing.shortest_path ~avoid:[ l.Link.id ] topo nic sock = None)
        | _ -> Alcotest.fail "expected single link");
    tc "cross-socket path uses inter-socket link" (fun () ->
        let topo = Builder.two_socket_server () in
        let gpu0 = (Topology.device_named topo "gpu0").Device.id in
        let gpu1 = (Topology.device_named topo "gpu1").Device.id in
        match Routing.shortest_path topo gpu0 gpu1 with
        | None -> Alcotest.fail "no path"
        | Some p ->
          let kinds = List.map (fun (l : Link.t) -> Link.kind_label l.Link.kind) (Path.links p) in
          Alcotest.(check bool) "crosses sockets" true (List.mem "inter-socket" kinds));
    tc "path latency equals sum of link latencies" (fun () ->
        let topo = Builder.minimal () in
        let nic = (Topology.device_named topo "nic0").Device.id in
        let sock = (Topology.device_named topo "socket0").Device.id in
        match Routing.shortest_path topo nic sock with
        | None -> Alcotest.fail "no path"
        | Some p ->
          let expect =
            List.fold_left (fun acc (l : Link.t) -> acc +. l.Link.base_latency) 0.0 (Path.links p)
          in
          check_close "latency" expect (Path.base_latency p));
    tc "k_shortest returns distinct loop-free paths, best first" (fun () ->
        let topo = Builder.two_socket_server () in
        let gpu0 = (Topology.device_named topo "gpu0").Device.id in
        let d = (Topology.device_named topo "dimm1.0.0").Device.id in
        let paths = Routing.k_shortest_paths ~k:3 topo gpu0 d in
        Alcotest.(check bool) "at least one" true (List.length paths >= 1);
        let weights = List.map (Routing.path_weight `Latency) paths in
        let sorted = List.sort compare weights in
        Alcotest.(check (list (float 1e-9))) "sorted" sorted weights;
        let keys =
          List.map (fun p -> List.map (fun (l : Link.t) -> l.Link.id) (Path.links p)) paths
        in
        Alcotest.(check int) "distinct" (List.length keys)
          (List.length (List.sort_uniq compare keys));
        List.iter
          (fun p ->
            let devs = Path.devices p in
            Alcotest.(check int) "loop free" (List.length devs)
              (List.length (List.sort_uniq compare devs)))
          paths);
    tc "weight `Hops minimizes hop count" (fun () ->
        let topo = Builder.two_socket_server () in
        let nic = (Topology.device_named topo "nic0").Device.id in
        let sock = (Topology.device_named topo "socket0").Device.id in
        match Routing.shortest_path ~weight:`Hops topo nic sock with
        | None -> Alcotest.fail "no path"
        | Some p -> Alcotest.(check int) "hops" 4 (Path.hop_count p));
  ]

(* Property: on every builder topology, any two endpoint devices are
   connected, and Dijkstra's result is well-formed. *)
let routing_properties =
  let topos =
    [ Builder.two_socket_server (); Builder.dgx_like (); Builder.epyc_like (); Builder.minimal () ]
  in
  let gen =
    QCheck.make
      ~print:(fun (i, a, b) -> Printf.sprintf "topo%d %d->%d" i a b)
      QCheck.Gen.(
        let* i = int_range 0 (List.length topos - 1) in
        let topo = List.nth topos i in
        let n = Topology.device_count topo in
        let* a = int_range 0 (n - 1) in
        let* b = int_range 0 (n - 1) in
        return (i, a, b))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"all pairs reachable and paths well-formed" ~count:300 gen
         (fun (i, a, b) ->
           let topo = List.nth topos i in
           match Routing.shortest_path topo a b with
           | None -> false
           | Some p ->
             Path.well_formed topo p && p.Path.src = a && p.Path.dst = b));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"hop-count path never longer than latency path (in hops)"
         ~count:200 gen (fun (i, a, b) ->
           let topo = List.nth topos i in
           match
             (Routing.shortest_path ~weight:`Hops topo a b, Routing.shortest_path topo a b)
           with
           | Some h, Some l -> Path.hop_count h <= Path.hop_count l
           | _ -> false));
  ]

(* {1 Lookups by name} *)

let lookup_tests =
  [
    tc "device_named and link_named resolve names or name what is missing" (fun () ->
        let topo = Builder.two_socket_server () in
        let nic = Topology.device_named topo "nic0" in
        Alcotest.(check string) "name" "nic0" nic.Device.name;
        Alcotest.check_raises "no device" (Invalid_argument "no device nope") (fun () ->
            ignore (Topology.device_named topo "nope"));
        let l = Topology.link_named topo "pciesw0" "nic0" in
        Alcotest.(check bool) "joins the two" true
          (List.sort compare [ l.Link.a; l.Link.b ]
          = List.sort compare [ nic.Device.id; (Topology.device_named topo "pciesw0").Device.id ]);
        Alcotest.(check int) "either order" l.Link.id
          (Topology.link_named topo "nic0" "pciesw0").Link.id;
        Alcotest.check_raises "not adjacent" (Invalid_argument "no link between nic0 and socket1")
          (fun () -> ignore (Topology.link_named topo "nic0" "socket1"));
        Alcotest.check_raises "unknown end" (Invalid_argument "no device nope") (fun () ->
            ignore (Topology.link_named topo "nic0" "nope")));
    tc "no preset has two links between one pair of devices" (fun () ->
        List.iter
          (fun topo ->
            List.iter
              (fun (l : Link.t) ->
                Alcotest.(check int) "one link" 1
                  (List.length (Topology.links_between topo l.Link.a l.Link.b)))
              (Topology.links topo))
          [
            Builder.two_socket_server ();
            Builder.dgx_like ();
            Builder.epyc_like ();
            Builder.minimal ();
          ]);
    tc "route is the shortest path between names, refusing what it cannot join" (fun () ->
        let topo = Builder.two_socket_server () in
        let nic = Topology.device_named topo "nic0" in
        let dimm = Topology.device_named topo "dimm1.0.0" in
        let ids p = List.map (fun (l : Link.t) -> l.Link.id) (Path.links p) in
        Alcotest.(check (list int)) "same hops as shortest_path"
          (ids (Option.get (Routing.shortest_path topo nic.Device.id dimm.Device.id)))
          (ids (Routing.route topo "nic0" "dimm1.0.0"));
        Alcotest.(check int) "empty when a = b" 0
          (Path.hop_count (Routing.route topo "gpu0" "gpu0"));
        Alcotest.check_raises "source checked first" (Invalid_argument "no device x") (fun () ->
            ignore (Routing.route topo "x" "y"));
        (* two sockets with no link between them *)
        let split = Topology.create ~name:"split" () in
        let socket name i =
          ignore
            (Topology.add_device split ~name ~kind:(Device.Cpu_socket { cores = 1 }) ~socket:i)
        in
        socket "a" 0;
        socket "b" 1;
        Alcotest.check_raises "unreachable" (Invalid_argument "no path from a to b") (fun () ->
            ignore (Routing.route split "a" "b")));
    tc "sockets in device order; a home socket found by index" (fun () ->
        let topo = Builder.dgx_like () in
        let names = List.map (fun (d : Device.t) -> d.Device.name) (Topology.sockets topo) in
        Alcotest.(check (list string)) "sockets" [ "socket0"; "socket1" ] names;
        Alcotest.(check bool) "is_socket" true
          (List.for_all Device.is_socket (Topology.sockets topo)
          && not (Device.is_socket (Topology.device_named topo "nic0")));
        List.iter
          (fun (d : Device.t) ->
            match Topology.home_socket topo d with
            | Some s ->
              (* presets name their sockets socketN *)
              Alcotest.(check string) d.Device.name
                ("socket" ^ string_of_int d.Device.socket)
                s.Device.name
            | None -> Alcotest.failf "%s has no home socket" d.Device.name)
          (Topology.find_devices topo (fun d -> Device.is_io_device d || Device.is_socket d));
        (* a socket named otherwise is found all the same; a missing index is None *)
        let odd = Topology.create ~name:"odd" () in
        let cpu =
          Topology.add_device odd ~name:"cpu7" ~kind:(Device.Cpu_socket { cores = 1 }) ~socket:0
        in
        let nic =
          Topology.add_device odd ~name:"n" ~kind:(Device.Nic { inter_host_gbps = 1.0 }) ~socket:0
        in
        let stray = Topology.add_device odd ~name:"g" ~kind:Device.Gpu ~socket:3 in
        Alcotest.(check (option int)) "by index" (Some cpu.Device.id)
          (Option.map (fun (s : Device.t) -> s.Device.id) (Topology.home_socket odd nic));
        Alcotest.(check bool) "no socket 3" true (Topology.home_socket odd stray = None));
    tc "dir_label names both directions" (fun () ->
        Alcotest.(check (list string)) "labels" [ "fwd"; "rev" ]
          (List.map Link.dir_label [ Link.Fwd; Link.Rev ]));
  ]

let suites =
  [
    ("topology.pcie", pcie_tests);
    ("topology.hostconfig", hostconfig_tests);
    ("topology.graph", graph_tests);
    ("topology.builders", builder_tests);
    ("topology.routing", routing_tests @ routing_properties);
    ("topology.lookups", lookup_tests);
  ]
