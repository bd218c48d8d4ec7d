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
  (* Hardware rate limit: the last fresh reading of each resource
     ([res_key]), one flat array per field; a NaN [at] is never read.
     Empty under the other fidelities. *)
  last_at : float array;
  last_wire : float array;
  last_util : float array;
  last_induced : float array;
  frozen : (int, reading) Hashtbl.t; (* resource -> reading a stuck counter froze at *)
}

let create ?(noise = 0.0) fabric ~fidelity =
  (* NaN fails the comparison too *)
  if not (noise >= 0.0) then
    invalid_arg (Printf.sprintf "Counter.create: noise must be >= 0 (got %g)" noise);
  let nres =
    match fidelity with
    | Hardware _ -> 2 * T.Topology.link_count (Fabric.topology fabric)
    | Software | Oracle -> 0
  in
  {
    fabric;
    fidelity;
    noise;
    rng = Ihnet_util.Rng.split (Fabric.rng fabric);
    last_at = Array.make nres nan;
    last_wire = Array.make nres 0.0;
    last_util = Array.make nres 0.0;
    last_induced = Array.make nres 0.0;
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
   so clearing the fault immediately restores honest values. A frozen
   reading lasts one stuck episode: the first read that finds the
   link's devices not stuck forgets it, so the next episode freezes
   the value read when it starts. *)
let corrupt_armed t link_id dir (r : reading) =
  let sf = Fabric.link_sensor_fault t.fabric link_id in
  let key = res_key link_id dir in
  if (not sf.Sensorfault.stuck) && Hashtbl.length t.frozen > 0 then Hashtbl.remove t.frozen key;
  if Sensorfault.is_none sf then r
  else begin
    let r =
      if sf.Sensorfault.stuck then (
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

(* with no sensor fault armed nothing is stuck, so nothing stays frozen *)
let corrupt t link_id dir r =
  if Fabric.sensor_faults_armed t.fabric then corrupt_armed t link_id dir r
  else begin
    if Hashtbl.length t.frozen > 0 then Hashtbl.reset t.frozen;
    r
  end

let read t link_id dir ~tenants =
  let raw =
    match t.fidelity with
    | Software | Oracle -> fresh_reading t link_id dir ~tenants
    | Hardware { max_read_hz } ->
      let k = res_key link_id dir in
      let at = t.last_at.(k) in
      if Fabric.now t.fabric -. at < 1e9 /. max_read_hz then
        {
          at;
          wire_bytes = t.last_wire.(k);
          utilization = t.last_util.(k);
          per_tenant = [];
          induced_bytes = t.last_induced.(k);
        }
      else begin
        let r = fresh_reading t link_id dir ~tenants in
        t.last_at.(k) <- r.at;
        t.last_wire.(k) <- r.wire_bytes;
        t.last_util.(k) <- r.utilization;
        t.last_induced.(k) <- r.induced_bytes;
        r
      end
  in
  corrupt t link_id dir raw

let ddio_hit_rate t ~socket =
  match t.fidelity with
  | Software -> None
  | Hardware _ | Oracle ->
    Some (Float.min 1.0 (noisy t (Fabric.ddio_hit_rate t.fabric ~socket)))
