module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module T = Ihnet_topology
module U = Ihnet_util

type event = { at : U.Units.ns; src : string; dst : string; bytes : float; tenant : int }
type t = { mutable evs : event list }

let empty () = { evs = [] }
let add t e = t.evs <- e :: t.evs
let length t = List.length t.evs
let events t = List.sort (fun a b -> compare a.at b.at) t.evs

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "at_ns,src,dst,bytes,tenant\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%.0f,%s,%s,%.0f,%d\n" e.at e.src e.dst e.bytes e.tenant))
    (events t);
  Buffer.contents buf

let of_csv s =
  let lines = String.split_on_char '\n' s in
  let t = empty () in
  let parse_line i line =
    if i = 0 || String.trim line = "" then Ok ()
    else
      match String.split_on_char ',' line with
      | [ at; src; dst; bytes; tenant ] -> (
        match
          (float_of_string_opt at, float_of_string_opt bytes, int_of_string_opt tenant)
        with
        | Some at, Some bytes, Some tenant ->
          add t { at; src; dst; bytes; tenant };
          Ok ()
        | _ -> Error (Printf.sprintf "line %d: bad number" (i + 1)))
      | _ -> Error (Printf.sprintf "line %d: expected 5 fields" (i + 1))
  in
  let rec walk i = function
    | [] -> Ok t
    | line :: rest -> (
      match parse_line i line with Ok () -> walk (i + 1) rest | Error e -> Error e)
  in
  walk 0 lines

let capture fabric =
  let topo = Fabric.topology fabric in
  let t = empty () in
  let t0 = Sim.now (Fabric.sim fabric) in
  Fabric.subscribe fabric (fun ev ->
      match ev with
      | Fabric.Flow_started f -> (
        match (f.Flow.cls, f.Flow.size) with
        | Flow.Payload, Flow.Bytes bytes ->
          let name id = (T.Topology.device topo id).T.Device.name in
          add t
            {
              at = f.Flow.started_at -. t0;
              src = name f.Flow.path.T.Path.src;
              dst = name f.Flow.path.T.Path.dst;
              bytes;
              tenant = f.Flow.tenant;
            }
        | _ -> ())
      | Fabric.Flow_completed _ | Fabric.Flow_stopped _ | Fabric.Fault_injected _
      | Fabric.Fault_cleared _ | Fabric.Limits_changed _ | Fabric.Config_changed _
      | Fabric.Reallocated _ | Fabric.All_faults_cleared | Fabric.Batch_started | Fabric.Batch_ended
      | Fabric.Synced | Fabric.Sensor_fault_injected _ | Fabric.Sensor_fault_cleared _ ->
        ());
  t

type replay_stats = {
  mutable completed : int;
  mutable total_bytes : float;
  durations : U.Sketch.t;
}

let replay fabric t =
  let topo = Fabric.topology fabric in
  let sim = Fabric.sim fabric in
  let stats = { completed = 0; total_bytes = 0.0; durations = U.Sketch.create () } in
  let base = Sim.now sim in
  let dev name =
    match T.Topology.device_by_name topo name with
    | Some d -> d.T.Device.id
    | None -> invalid_arg ("Trace.replay: no device " ^ name)
  in
  List.iter
    (fun e ->
      let src = dev e.src and dst = dev e.dst in
      match T.Routing.shortest_path topo src dst with
      | None -> invalid_arg (Printf.sprintf "Trace.replay: %s and %s not connected" e.src e.dst)
      | Some path ->
        Sim.schedule_at sim (base +. e.at) (fun _ ->
            ignore
              (Fabric.start_flow fabric ~tenant:e.tenant ~path ~size:(Flow.Bytes e.bytes)
                 ~on_complete:(fun f ->
                   stats.completed <- stats.completed + 1;
                   stats.total_bytes <- stats.total_bytes +. e.bytes;
                   U.Sketch.record stats.durations (Flow.duration f))
                 ())))
    (events t);
  stats
