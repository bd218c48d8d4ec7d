module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module T = Ihnet_topology
module U = Ihnet_util

type handle = {
  name : string;
  describe : string;
  tenants : (int * string) list;
  metrics : unit -> (string * string) list;
  stop : unit -> unit;
}

let time v = Format.asprintf "%a" U.Units.pp_time v
let rate v = Format.asprintf "%a" U.Units.pp_rate v

let colocation fabric =
  let kv = Kvstore.start fabric (Kvstore.default_config ~tenant:1 ~nic:"nic0") in
  let ml =
    Mltrain.start fabric
      {
        (Mltrain.default_config ~tenant:2 ~gpu:"gpu0" ~data_source:"dimm0.0.0") with
        Mltrain.compute_time = 0.0;
        loader_streams = 3;
      }
  in
  {
    name = "colocation";
    describe = "kv store (nic0) vs 3-stream ML trainer (gpu0) on one root port";
    tenants = [ (1, "kv store"); (2, "ml trainer") ];
    metrics =
      (fun () ->
        let lat = Kvstore.latencies kv in
        [
          ("kv p50", time (U.Sketch.percentile lat 0.5));
          ("kv p99", time (U.Sketch.percentile lat 0.99));
          ("kv req/s", Printf.sprintf "%.0fk" (Kvstore.achieved_rate kv /. 1e3));
          ("ml iterations", string_of_int (Mltrain.iterations_done ml));
        ]);
    stop =
      (fun () ->
        Kvstore.stop kv;
        Mltrain.stop ml);
  }

let loopback fabric =
  let topo = Fabric.topology fabric in
  let victim_path =
    T.Path.concat (T.Routing.route topo "ext" "nic0") (T.Routing.route topo "nic0" "socket0")
  in
  let victim =
    Fabric.start_flow fabric ~tenant:1 ~demand:20e9 ~llc_target:true ~path:victim_path
      ~size:Flow.Unbounded ()
  in
  let agg = Rdma.start_loopback fabric ~tenant:2 ~nic:"nic0" () in
  {
    name = "loopback";
    describe = "20 GB/s inbound RDMA victim vs loopback aggressor on nic0";
    tenants = [ (1, "rdma victim"); (2, "loopback aggressor") ];
    metrics =
      (fun () ->
        [
          ("victim rate", rate victim.Flow.rate);
          ("victim latency", time (Fabric.flow_path_latency fabric ~payload_bytes:512 victim));
          ("aggressor rate", rate (Rdma.loopback_rate agg));
        ]);
    stop =
      (fun () ->
        Fabric.stop_flow fabric victim;
        Rdma.stop_loopback agg);
  }

(* two 200G NICs DDIO-writing into socket 0 (tenants 1, 2); metrics:
   hit rate, induced memory traffic *)
let ddio_thrash fabric =
  let topo = Fabric.topology fabric in
  let w1 =
    Fabric.start_flow fabric ~tenant:1 ~llc_target:true
      ~path:(T.Routing.route topo "nic0" "socket0")
      ~size:Flow.Unbounded ()
  in
  let w2 =
    Fabric.start_flow fabric ~tenant:2 ~llc_target:true
      ~path:(T.Routing.route topo "nic1" "socket0")
      ~size:Flow.Unbounded ()
  in
  {
    name = "ddio-thrash";
    describe = "two 200G NICs DDIO-writing into socket 0's LLC I/O ways";
    tenants = [ (1, "nic0 writer"); (2, "nic1 writer") ];
    metrics =
      (fun () ->
        [
          ("aggregate writes", rate (Fabric.ddio_write_rate fabric ~socket:0));
          ( "llc io-way hit",
            Printf.sprintf "%.0f%%" (Fabric.ddio_hit_rate fabric ~socket:0 *. 100.0) );
          ("induced mem traffic", rate (Fabric.ddio_spill_rate fabric ~socket:0));
        ]);
    stop =
      (fun () ->
        Fabric.stop_flow fabric w1;
        Fabric.stop_flow fabric w2);
  }

(* E12's baseline (tenants 1–3: LLC writer, striped direct DMA,
   striped reads), with no anomaly injected; metrics: ddio hit,
   aggregate rates *)
let gray_failure fabric =
  let topo = Fabric.topology fabric in
  let flows = ref [] in
  let start f = flows := f :: !flows in
  start
    (Fabric.start_flow fabric ~tenant:1 ~demand:26e9 ~llc_target:true
       ~path:(T.Routing.route topo "nic0" "socket0") ~size:Flow.Unbounded ());
  let dimms = List.init 6 (fun i -> Printf.sprintf "dimm0.%d.%d" (i / 3) (i mod 3)) in
  List.iter
    (fun d ->
      start
        (Fabric.start_flow fabric ~tenant:2 ~demand:1.5e9 ~path:(T.Routing.route topo "nic1" d)
           ~size:Flow.Unbounded ());
      start
        (Fabric.start_flow fabric ~tenant:3 ~demand:1.0e9 ~path:(T.Routing.route topo d "ssd0")
           ~size:Flow.Unbounded ()))
    dimms;
  {
    name = "gray-failure";
    describe = "E12's steady baseline: LLC writer + striped direct DMA + striped reads";
    tenants = [ (1, "llc writer"); (2, "direct dma"); (3, "reader") ];
    metrics =
      (fun () ->
        [
          ( "llc io-way hit",
            Printf.sprintf "%.0f%%" (Fabric.ddio_hit_rate fabric ~socket:0 *. 100.0) );
          ( "aggregate rate",
            rate
              (List.fold_left (fun acc (f : Flow.t) -> acc +. f.Flow.rate) 0.0 !flows) );
        ]);
    stop = (fun () -> List.iter (Fabric.stop_flow fabric) !flows);
  }

let registry =
  [
    ("colocation", colocation);
    ("loopback", loopback);
    ("ddio-thrash", ddio_thrash);
    ("gray-failure", gray_failure);
  ]

let all =
  List.map
    (fun (name, _) ->
      (* describe without side effects: fixed strings *)
      ( name,
        match name with
        | "colocation" -> "kv store vs ML trainer on one root port (the paper's §2 story)"
        | "loopback" -> "RDMA loopback exhausting a NIC's PCIe slot (Collie)"
        | "ddio-thrash" -> "two fast NICs thrashing the LLC I/O ways"
        | _ -> "a subtle DDIO gray failure's steady baseline" ))
    registry

let find name = List.assoc_opt name registry
