module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module Sensorfault = Ihnet_engine.Sensorfault
module T = Ihnet_topology
module U = Ihnet_util

type processing =
  | Local of { cost_per_sample : U.Units.ns }
  | Ship of { collector : string; bytes_per_sample : float }

type config = {
  period : U.Units.ns;
  fidelity : Counter.fidelity;
  noise : float;
  processing : processing;
  tenants : int list;
}

let default_config () =
  {
    period = U.Units.us 100.0;
    fidelity = Counter.Hardware { max_read_hz = 10_000.0 };
    noise = 0.0;
    processing = Local { cost_per_sample = 500.0 };
    tenants = [];
  }

type t = {
  fabric : Fabric.t;
  config : config;
  counter : Counter.t;
  telemetry : Telemetry.t;
  rng : Ihnet_util.Rng.t; (* drawn from ONLY while a sensor fault is active *)
  held : (string, float) Hashtbl.t; (* stuck series -> frozen value *)
  (* The tick's walk, fixed at start: [links] in topology order, and
     every per-(link, dir) array indexed [2 * i + dir] in that order *)
  links : T.Link.id array;
  util_h : Telemetry.handle array;
  bytes_h : Telemetry.handle array;
  tenant_h : Telemetry.handle array array; (* one per configured tenant *)
  sockets : int array;
  ddio_h : Telemetry.handle array;
  (* percentile sub-series of each (link, dir), then of the flow
     roll-up; a slot is interned at its first snapshot *)
  latency_h : Telemetry.handle array array;
  mutable ship_flows : Flow.t list;
  mutable ticks : int;
  mutable cpu : float;
  mutable stopped : bool;
}

let dirs = [| T.Link.Fwd; T.Link.Rev |]
let dir_label = function T.Link.Fwd -> "fwd" | T.Link.Rev -> "rev"
let util_series id dir = Printf.sprintf "link.%d.%s.util" id (dir_label dir)
let bytes_series id dir = Printf.sprintf "link.%d.%s.bytes" id (dir_label dir)

let tenant_series id dir ~tenant =
  Printf.sprintf "link.%d.%s.tenant.%d.bytes" id (dir_label dir) tenant

let ddio_series ~socket = Printf.sprintf "ddio.%d.hit" socket
let latency_series id dir = Printf.sprintf "link.%d.%s.latency" id (dir_label dir)
(* the host-wide end-to-end flow-latency snapshot, recorded at flow
   completions *)
let flow_latency_series = "flow.latency"

let sockets_of topo =
  T.Topology.find_devices topo (fun d ->
      match d.T.Device.kind with T.Device.Cpu_socket _ -> true | _ -> false)
  |> List.map (fun (d : T.Device.t) -> d.T.Device.socket)

(* Number of scalar samples one tick produces. With the latency-sketch
   plane on, each (link, dir) and the flow roll-up add one percentile
   snapshot = 7 scalar fields. *)
let samples_per_tick t =
  let nlinks = Array.length t.links in
  let per_link = 2 * (2 + List.length t.config.tenants) in
  let latency =
    if Fabric.latency_sketches_enabled t.fabric then 7 * ((2 * nlinks) + 1) else 0
  in
  (nlinks * per_link) + Array.length t.sockets + latency

(* When shipping, telemetry flows run from every I/O device to the
   collector, splitting the aggregate telemetry rate evenly — a fluid
   stand-in for the per-sample DMA bursts real monitoring agents issue. *)
let setup_shipping t =
  match t.config.processing with
  | Local _ -> ()
  | Ship { collector; bytes_per_sample } ->
    let topo = Fabric.topology t.fabric in
    let collector_dev =
      match T.Topology.device_by_name topo collector with
      | Some d -> d
      | None -> invalid_arg ("Sampler: no collector device " ^ collector)
    in
    let sources = T.Topology.find_devices topo T.Device.is_io_device in
    if sources <> [] then begin
      let total_rate =
        float_of_int (samples_per_tick t) *. bytes_per_sample /. (t.config.period /. 1e9)
      in
      let per_source = total_rate /. float_of_int (List.length sources) in
      t.ship_flows <-
        List.filter_map
          (fun (src : T.Device.t) ->
            match T.Routing.shortest_path topo src.T.Device.id collector_dev.T.Device.id with
            | None -> None
            | Some path ->
              Some
                (Fabric.start_flow t.fabric ~tenant:0 ~cls:Flow.Monitoring ~demand:per_source
                   ~payload_bytes:64 ~path ~size:Flow.Unbounded ()))
          sources
    end

(* A series-scoped sensor fault, looked up by the handle's name. A
   frozen value lasts one stuck episode: the first sample that finds
   its series not stuck forgets it. *)
let put_armed t h ~at value =
  let series = Telemetry.name h in
  let sf = Fabric.sensor_fault_of t.fabric (Sensorfault.Series series) in
  if (not sf.Sensorfault.stuck) && Hashtbl.length t.held > 0 then Hashtbl.remove t.held series;
  if Sensorfault.is_none sf then Telemetry.push h ~at value
  else begin
    let at = at +. sf.Sensorfault.skew in
    let value =
      if sf.Sensorfault.stuck then (
        match Hashtbl.find_opt t.held series with
        | Some v -> v
        | None ->
          Hashtbl.add t.held series value;
          value)
      else value
    in
    let value = value *. sf.Sensorfault.drift in
    if U.Rng.float t.rng 1.0 < sf.Sensorfault.drop_prob then ()
    else begin
      Telemetry.push h ~at value;
      if U.Rng.float t.rng 1.0 < sf.Sensorfault.dup_prob then Telemetry.push h ~at value
    end
  end

(* Every sample funnels through here so a [Series]-scoped sensor fault
   can corrupt it. While no sensor fault is armed it is one predicate
   and two stores — no key built, no RNG draw — so fault-free runs stay
   bit-identical to a build without sensor faults. *)
let put t h ~at value =
  if Fabric.sensor_faults_armed t.fabric then put_armed t h ~at value
  else Telemetry.push h ~at value

(* [per_tenant] lists the tenants in the order [Counter.read] was
   asked for them, which is the order of [hs] *)
let rec put_tenants t hs ~at j = function
  | [] -> ()
  | (_, b) :: rest ->
    put t hs.(j) ~at b;
    put_tenants t hs ~at (j + 1) rest

(* Latency percentiles, one sub-series per field, so each funnels
   through [put] and stays individually corruptible by a
   [Series]-scoped sensor fault. Slot [k] of [latency_h] is interned
   under [base ()] at its first snapshot. *)
let put_latency t k ~base ~at = function
  | Some sk when U.Sketch.count sk > 0 ->
    let fields = Telemetry.pct_fields (U.Sketch.snapshot sk) in
    if Array.length t.latency_h.(k) = 0 then begin
      let series = base () in
      t.latency_h.(k) <-
        Array.of_list
          (List.map
             (fun (f, _) -> Telemetry.handle t.telemetry (Telemetry.pct_series ~series f))
             fields)
    end;
    List.iteri (fun j (_, v) -> put t t.latency_h.(k).(j) ~at v) fields
  | Some _ | None -> ()

let rec tick t _sim =
  if not t.stopped then begin
    let now = Fabric.now t.fabric in
    let tenants = t.config.tenants in
    (* nothing armed: no target is stuck, so nothing stays frozen *)
    if Hashtbl.length t.held > 0 && not (Fabric.sensor_faults_armed t.fabric) then
      Hashtbl.reset t.held;
    for i = 0 to Array.length t.links - 1 do
      for d = 0 to 1 do
        let k = (2 * i) + d in
        let r = Counter.read t.counter t.links.(i) dirs.(d) ~tenants in
        put t t.util_h.(k) ~at:now r.Counter.utilization;
        put t t.bytes_h.(k) ~at:now r.Counter.wire_bytes;
        put_tenants t t.tenant_h.(k) ~at:now 0 r.Counter.per_tenant
      done
    done;
    for j = 0 to Array.length t.sockets - 1 do
      match Counter.ddio_hit_rate t.counter ~socket:t.sockets.(j) with
      | Some h -> put t t.ddio_h.(j) ~at:now h
      | None -> ()
    done;
    (* dormant sketch plane: zero work *)
    if Fabric.latency_sketches_enabled t.fabric then begin
      for i = 0 to Array.length t.links - 1 do
        for d = 0 to 1 do
          let id = t.links.(i) and dir = dirs.(d) in
          put_latency t ((2 * i) + d)
            ~base:(fun () -> latency_series id dir)
            ~at:now
            (Fabric.link_latency_sketch t.fabric id dir)
        done
      done;
      put_latency t (2 * Array.length t.links)
        ~base:(fun () -> flow_latency_series)
        ~at:now (Fabric.flow_latency_sketch t.fabric)
    end;
    t.ticks <- t.ticks + 1;
    (match t.config.processing with
    | Local { cost_per_sample } ->
      t.cpu <- t.cpu +. (cost_per_sample *. float_of_int (samples_per_tick t))
    | Ship _ -> ());
    Sim.schedule (Fabric.sim t.fabric) ~after:t.config.period (tick t)
  end

let start fabric config =
  (* NaN fails the comparison too *)
  if not (config.period > 0.0) then
    invalid_arg (Printf.sprintf "Sampler.start: period must be > 0 (got %g)" config.period);
  let topo = Fabric.topology fabric in
  let telemetry = Telemetry.create () in
  let links =
    Array.of_list (List.map (fun (l : T.Link.t) -> l.T.Link.id) (T.Topology.links topo))
  in
  let per_dir f = Array.init (2 * Array.length links) (fun k -> f links.(k / 2) dirs.(k mod 2)) in
  let sockets = Array.of_list (sockets_of topo) in
  let t =
    {
      fabric;
      config;
      counter = Counter.create ~noise:config.noise fabric ~fidelity:config.fidelity;
      telemetry;
      (* split off a COPY: deriving from the shared stream directly
         would advance it and perturb every later consumer's draws
         (heartbeat streams etc.) even in fault-free runs *)
      rng = U.Rng.split (U.Rng.copy (Fabric.rng fabric));
      held = Hashtbl.create 8;
      links;
      util_h = per_dir (fun id dir -> Telemetry.handle telemetry (util_series id dir));
      bytes_h = per_dir (fun id dir -> Telemetry.handle telemetry (bytes_series id dir));
      tenant_h =
        per_dir (fun id dir ->
            Array.of_list
              (List.map
                 (fun tenant -> Telemetry.handle telemetry (tenant_series id dir ~tenant))
                 config.tenants));
      sockets;
      ddio_h = Array.map (fun socket -> Telemetry.handle telemetry (ddio_series ~socket)) sockets;
      latency_h = Array.make ((2 * Array.length links) + 1) [||];
      ship_flows = [];
      ticks = 0;
      cpu = 0.0;
      stopped = false;
    }
  in
  setup_shipping t;
  Sim.schedule (Fabric.sim fabric) ~after:config.period (tick t);
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    List.iter (Fabric.stop_flow t.fabric) t.ship_flows;
    t.ship_flows <- []
  end

let telemetry t = t.telemetry
let counter t = t.counter
let ticks t = t.ticks
let cpu_time_consumed t = t.cpu

let shipping_rate t =
  List.fold_left (fun acc (f : Flow.t) -> acc +. f.Flow.rate) 0.0 t.ship_flows

(* The one plausibility judge, over the retained telemetry: it sees a
   device-scoped fault through the counter's corrupted reading and a
   series-scoped one through [put]. Computed on demand, so ticks stay
   cheap; the price is that it forgets what the ring has dropped. *)
let health t =
  let topo = Fabric.topology t.fabric in
  let found = ref [] in
  List.iter
    (fun (l : T.Link.t) ->
      List.iter
        (fun dir ->
          let id = l.T.Link.id in
          let bytes =
            Telemetry.window t.telemetry ~series:(bytes_series id dir) ~since:neg_infinity
          in
          let nominal = l.T.Link.capacity in
          (* a cumulative byte count can neither outrun the wire nor
             step backwards *)
          let rec out_of_range = function
            | (a : Telemetry.sample) :: (b :: _ as rest) ->
              let dt_s = (b.Telemetry.at -. a.Telemetry.at) /. 1e9 in
              let delta = b.Telemetry.value -. a.Telemetry.value in
              if dt_s > 0.0 && (delta > (nominal *. dt_s *. 1.05) +. 1.0 || delta < 0.0) then true
              else out_of_range rest
            | _ -> false
          in
          let flatline =
            match List.rev bytes with
            | c :: b :: a :: _
              when c.Telemetry.value = b.Telemetry.value
                   && b.Telemetry.value = a.Telemetry.value ->
              (* constant bytes are only suspicious while the link shows load *)
              let utils = Telemetry.values t.telemetry ~series:(util_series id dir) in
              let n = Array.length utils in
              let k = min 3 n in
              k > 0
              &&
              let s = ref 0.0 in
              for i = n - k to n - 1 do
                s := !s +. utils.(i)
              done;
              !s /. float_of_int k > 0.02
            | _ -> false
          in
          if out_of_range bytes then found := (id, dir, `Out_of_range) :: !found;
          if flatline then found := (id, dir, `Flatline) :: !found)
        [ T.Link.Fwd; T.Link.Rev ])
    (T.Topology.links topo);
  List.sort_uniq compare !found

let monitoring_wire_bytes t =
  let topo = Fabric.topology t.fabric in
  List.fold_left
    (fun acc (l : T.Link.t) ->
      acc
      +. Fabric.cls_link_bytes t.fabric l.T.Link.id T.Link.Fwd ~cls:Flow.Monitoring
      +. Fabric.cls_link_bytes t.fabric l.T.Link.id T.Link.Rev ~cls:Flow.Monitoring)
    0.0 (T.Topology.links topo)
