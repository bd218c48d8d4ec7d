module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sensorfault = Ihnet_engine.Sensorfault
module T = Ihnet_topology

type fidelity = Hardware of { max_read_hz : float } | Software | Oracle

type reading = {
  at : Ihnet_util.Units.ns;
  wire_bytes : float;
  utilization : float;
  per_tenant : (int * float) list;
  induced_bytes : float;
}

type t = {
  fabric : Fabric.t;
  fidelity : fidelity;
  noise : float;
  rng : Ihnet_util.Rng.t;
  cache : (int, reading) Hashtbl.t; (* resource -> last reading (Hardware rate limit) *)
  frozen : (int, reading) Hashtbl.t; (* resource -> reading a stuck counter froze at *)
}

let create ?(noise = 0.0) fabric ~fidelity =
  assert (noise >= 0.0);
  {
    fabric;
    fidelity;
    noise;
    rng = Ihnet_util.Rng.split (Fabric.rng fabric);
    cache = Hashtbl.create 64;
    frozen = Hashtbl.create 8;
  }

let fidelity t = t.fidelity
let fabric t = t.fabric

(* additive noise in utilization points: the quantization/sampling error
   of a real PMU read does not shrink with the signal. A zero count is
   exact — an idle link reads as exactly idle (clipping noise at zero
   would otherwise fold the distribution and poison baseline learning). *)
let noisy t v =
  if t.noise = 0.0 || v = 0.0 then v
  else Float.max 0.0 (v +. Ihnet_util.Rng.gaussian t.rng 0.0 t.noise)

let res_key link_id (dir : T.Link.dir) =
  (2 * link_id) + match dir with T.Link.Fwd -> 0 | T.Link.Rev -> 1

let fresh_reading t link_id dir ~tenants =
  let wire_bytes = Fabric.link_bytes t.fabric link_id dir in
  (* against the NOMINAL capacity: a silently degraded link does not
     tell the PMU its effective capacity shrank — that opacity is the
     paper's motivating case for heartbeats *)
  let nominal = (T.Topology.link (Fabric.topology t.fabric) link_id).T.Link.capacity in
  let utilization =
    if nominal <= 0.0 then 0.0
    else Float.min 1.0 (noisy t (Fabric.link_rate t.fabric link_id dir /. nominal))
  in
  let per_tenant =
    match t.fidelity with
    | Hardware _ -> []
    | Software | Oracle ->
      List.map (fun tn -> (tn, Fabric.tenant_link_bytes t.fabric link_id dir ~tenant:tn)) tenants
  in
  let induced_bytes =
    match t.fidelity with
    | Software -> 0.0
    | Hardware _ | Oracle -> Fabric.cls_link_bytes t.fabric link_id dir ~cls:Flow.Induced
  in
  { at = Fabric.now t.fabric; wire_bytes; utilization; per_tenant; induced_bytes }

(* Device-scoped sensor faults corrupt every counter of links incident
   to the faulted device. Applied on top of the (true) cached reading,
   so clearing the fault immediately restores honest values. *)
let corrupt t link_id dir (r : reading) =
  let sf = Fabric.link_sensor_fault t.fabric link_id in
  if Sensorfault.is_none sf then r
  else begin
    let r =
      if sf.Sensorfault.stuck then (
        let key = res_key link_id dir in
        match Hashtbl.find_opt t.frozen key with
        | Some fr -> { fr with at = r.at } (* value froze; the read clock did not *)
        | None ->
          Hashtbl.add t.frozen key r;
          r)
      else r
    in
    let d = sf.Sensorfault.drift in
    if d = 1.0 then r
    else
      {
        r with
        wire_bytes = r.wire_bytes *. d;
        utilization = Float.min 1.0 (r.utilization *. d);
        per_tenant = List.map (fun (tn, b) -> (tn, b *. d)) r.per_tenant;
        induced_bytes = r.induced_bytes *. d;
      }
  end

let read t link_id dir ~tenants =
  let raw =
    match t.fidelity with
    | Software | Oracle -> fresh_reading t link_id dir ~tenants
    | Hardware { max_read_hz } -> (
      let key = res_key link_id dir in
      let min_interval = 1e9 /. max_read_hz in
      match Hashtbl.find_opt t.cache key with
      | Some prev when Fabric.now t.fabric -. prev.at < min_interval -> prev
      | Some _ | None ->
        let r = fresh_reading t link_id dir ~tenants in
        Hashtbl.replace t.cache key r;
        r)
  in
  corrupt t link_id dir raw

let ddio_hit_rate t ~socket =
  match t.fidelity with
  | Software -> None
  | Hardware _ | Oracle ->
    Some (Float.min 1.0 (noisy t (Fabric.ddio_hit_rate t.fabric ~socket)))
