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
let util_series id dir = Printf.sprintf "link.%d.%s.util" id (T.Link.dir_label dir)
let bytes_series id dir = Printf.sprintf "link.%d.%s.bytes" id (T.Link.dir_label dir)

let tenant_series id dir ~tenant =
  Printf.sprintf "link.%d.%s.tenant.%d.bytes" id (T.Link.dir_label dir) tenant

let ddio_series ~socket = Printf.sprintf "ddio.%d.hit" socket
let latency_series id dir = Printf.sprintf "link.%d.%s.latency" id (T.Link.dir_label dir)
(* the host-wide end-to-end flow-latency snapshot, recorded at flow
   completions *)
let flow_latency_series = "flow.latency"

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
    let collector_dev = T.Topology.device_named topo collector in
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
  let sockets =
    Array.of_list (List.map (fun (d : T.Device.t) -> d.T.Device.socket) (T.Topology.sockets topo))
  in
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
let ticks t = t.ticks
let cpu_time_consumed t = t.cpu

let shipping_rate t =
  List.fold_left (fun acc (f : Flow.t) -> acc +. f.Flow.rate) 0.0 t.ship_flows

(* The one plausibility judge, over the retained telemetry: it sees a
   device-scoped fault through the counter's corrupted reading and a
   series-scoped one through [put]. Computed on demand, so ticks stay
   cheap; the price is that it forgets what the ring has dropped. It
   reads each ring in place ([Telemetry.walk]) and keeps a few numbers
   per series, so a call allocates next to nothing however full the
   store is. *)
let health t =
  let topo = Fabric.topology t.fabric in
  let found = ref [] in
  (* one walk's state: the link's nominal capacity, the previous
     sample's slot, whether a step was out of range, and the values of
     the three newest samples, newest first, with how many were seen *)
  let nominal = [| 0.0 |] in
  let prev = ref (-1) and out = ref false in
  let newest = [| 0.0; 0.0; 0.0 |] and seen = ref 0 in
  (* a cumulative byte count can neither outrun the wire nor step
     backwards. A sample with a NaN time is skipped, as a window over
     all time skips it. *)
  let judge ats values j =
    if not (Float.is_nan ats.(j)) then begin
      let i = !prev in
      if i >= 0 && not !out then begin
        let dt_s = (ats.(j) -. ats.(i)) /. 1e9 in
        let delta = values.(j) -. values.(i) in
        if dt_s > 0.0 && (delta > (nominal.(0) *. dt_s *. 1.05) +. 1.0 || delta < 0.0) then
          out := true
      end;
      prev := j;
      newest.(2) <- newest.(1);
      newest.(1) <- newest.(0);
      newest.(0) <- values.(j);
      incr seen
    end
  in
  let util_sum = [| 0.0 |] and util_n = ref 0 in
  let add_util _ values j =
    util_sum.(0) <- util_sum.(0) +. values.(j);
    incr util_n
  in
  for i = 0 to Array.length t.links - 1 do
    let id = t.links.(i) in
    nominal.(0) <- (T.Topology.link topo id).T.Link.capacity;
    for d = 0 to 1 do
      let k = (2 * i) + d and dir = dirs.(d) in
      prev := -1;
      out := false;
      seen := 0;
      Telemetry.walk t.bytes_h.(k) judge;
      let flatline =
        !seen >= 3
        && newest.(0) = newest.(1)
        && newest.(1) = newest.(2)
        &&
        begin
          (* constant bytes are only suspicious while the link shows load *)
          util_sum.(0) <- 0.0;
          util_n := 0;
          Telemetry.walk ~last:3 t.util_h.(k) add_util;
          !util_n > 0 && util_sum.(0) /. float_of_int !util_n > 0.02
        end
      in
      if !out then found := (id, dir, `Out_of_range) :: !found;
      if flatline then found := (id, dir, `Flatline) :: !found
    done
  done;
  List.sort_uniq compare !found

let monitoring_wire_bytes t =
  let topo = Fabric.topology t.fabric in
  List.fold_left
    (fun acc (l : T.Link.t) ->
      acc
      +. Fabric.cls_link_bytes t.fabric l.T.Link.id T.Link.Fwd ~cls:Flow.Monitoring
      +. Fabric.cls_link_bytes t.fabric l.T.Link.id T.Link.Rev ~cls:Flow.Monitoring)
    0.0 (T.Topology.links topo)
