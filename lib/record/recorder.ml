module E = Ihnet_engine
module M = Ihnet_manager
module T = Ihnet_topology

type t = {
  fabric : E.Fabric.t;
  sink : Trace.line -> unit;
  digest_every : int;
  t0 : float; (* attach-time clock; all recorded times are relative *)
  epoch0 : int; (* attach-time reallocation count *)
  mutable active : bool;
  mutable nlines : int;
  mutable last_epoch : int; (* relative *)
}

let put t line =
  t.nlines <- t.nlines + 1;
  t.sink line

let now t = E.Fabric.now t.fabric -. t.t0

let spec_of_flow (f : E.Flow.t) : Trace.flow_spec =
  {
    flow_id = f.E.Flow.id;
    tenant = f.E.Flow.tenant;
    cls = f.E.Flow.cls;
    weight = f.E.Flow.weight;
    floor = f.E.Flow.floor;
    cap = f.E.Flow.cap;
    demand = f.E.Flow.demand;
    payload_bytes = f.E.Flow.payload_bytes;
    working_set_pages = f.E.Flow.working_set_pages;
    llc_target = f.E.Flow.llc_target;
    size = (match f.E.Flow.size with E.Flow.Bytes b -> Some b | E.Flow.Unbounded -> None);
    src = f.E.Flow.path.T.Path.src;
    dst = f.E.Flow.path.T.Path.dst;
    hops =
      List.map
        (fun (h : T.Path.hop) ->
          (h.T.Path.link.T.Link.id, match h.T.Path.dir with T.Link.Fwd -> 0 | T.Link.Rev -> 1))
        f.E.Flow.path.T.Path.hops;
  }

let digest ?(id_of = fun (f : E.Flow.t) -> f.E.Flow.id) ~at ~epoch fab =
  E.Fabric.refresh fab;
  let flows =
    E.Fabric.active_flows fab
    |> List.map (fun f -> (id_of f, f))
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let alloc =
    List.fold_left
      (fun h (id, (f : E.Flow.t)) -> Trace.fnv_float (Trace.fnv_int h id) f.E.Flow.rate)
      Trace.fnv_basis flows
  in
  let floor =
    List.fold_left
      (fun h (id, (f : E.Flow.t)) ->
        if f.E.Flow.floor > 0.0 then Trace.fnv_float (Trace.fnv_int h id) f.E.Flow.floor else h)
      Trace.fnv_basis flows
  in
  let topo = E.Fabric.topology fab in
  let bytes = ref Trace.fnv_basis in
  for l = 0 to T.Topology.link_count topo - 1 do
    bytes := Trace.fnv_float !bytes (E.Fabric.link_bytes fab l T.Link.Fwd);
    bytes := Trace.fnv_float !bytes (E.Fabric.link_bytes fab l T.Link.Rev)
  done;
  {
    Trace.d_at = at;
    d_epoch = epoch;
    d_flows = List.length flows;
    d_alloc = alloc;
    d_floor = floor;
    d_bytes = !bytes;
  }

let on_event t ev =
  if t.active then
    match (ev : E.Fabric.event) with
    | E.Fabric.Flow_started f ->
      put t (Trace.Op { at = now t; op = Trace.Start_flow (spec_of_flow f) })
    | E.Fabric.Flow_stopped f ->
      put t (Trace.Op { at = now t; op = Trace.Stop_flow f.E.Flow.id })
    | E.Fabric.Flow_completed f ->
      put t
        (Trace.Completed
           { at = now t; flow_id = f.E.Flow.id; transferred = f.E.Flow.transferred })
    | E.Fabric.Limits_changed f ->
      put t
        (Trace.Op
           {
             at = now t;
             op =
               Trace.Set_limits
                 {
                   flow_id = f.E.Flow.id;
                   weight = f.E.Flow.weight;
                   floor = f.E.Flow.floor;
                   cap = f.E.Flow.cap;
                 };
           })
    | E.Fabric.Fault_injected (link, fault) ->
      put t (Trace.Op { at = now t; op = Trace.Inject_fault { link; fault } })
    | E.Fabric.Fault_cleared link ->
      put t (Trace.Op { at = now t; op = Trace.Clear_fault link })
    | E.Fabric.All_faults_cleared ->
      put t (Trace.Op { at = now t; op = Trace.Clear_all_faults })
    | E.Fabric.Config_changed c ->
      put t (Trace.Op { at = now t; op = Trace.Set_config c })
    | E.Fabric.Sensor_fault_injected (starget, sf) ->
      put t (Trace.Op { at = now t; op = Trace.Inject_sensor_fault { starget; sf } })
    | E.Fabric.Sensor_fault_cleared target ->
      put t (Trace.Op { at = now t; op = Trace.Clear_sensor_fault target })
    | E.Fabric.Synced -> put t (Trace.Op { at = now t; op = Trace.Sync })
    | E.Fabric.Batch_started -> put t (Trace.Op { at = now t; op = Trace.Batch_start })
    | E.Fabric.Batch_ended -> put t (Trace.Op { at = now t; op = Trace.Batch_end })
    | E.Fabric.Reallocated epoch ->
      let rel = epoch - t.epoch0 in
      t.last_epoch <- rel;
      if rel mod t.digest_every = 0 then
        put t (Trace.Digest (digest ~at:(now t) ~epoch:rel t.fabric))

let attach ?(digest_every = 32) ?(label = "") ?preset ?(seed = 0) ~sink fabric =
  if digest_every <= 0 then invalid_arg "Recorder.attach: digest_every must be positive";
  if E.Fabric.flow_count fabric > 0 then
    invalid_arg "Recorder.attach: fabric already has active flows (attach to a fresh host)";
  let topo = E.Fabric.topology fabric in
  let preset = match preset with Some p -> p | None -> T.Topology.name topo in
  let t =
    {
      fabric;
      sink;
      digest_every;
      t0 = E.Fabric.now fabric;
      epoch0 = E.Fabric.reallocations fabric;
      active = true;
      nlines = 0;
      last_epoch = 0;
    }
  in
  put t
    (Trace.Header
       {
         Trace.version = Trace.version;
         preset;
         seed;
         label;
         digest_every;
         host_config = T.Topology.config topo;
       });
  E.Fabric.subscribe fabric (on_event t);
  t

let stage_label : M.Remediation.stage -> string = function
  | M.Remediation.Rearbitrate -> "rearbitrate"
  | M.Remediation.Replace -> "replace"
  | M.Remediation.Degrade -> "degrade"

let observe_remediation t rem =
  M.Remediation.on_action rem (fun (a : M.Remediation.action) ->
      if t.active then
        put t
          (Trace.Action
             {
               at = a.M.Remediation.at -. t.t0;
               link = a.M.Remediation.action_link;
               stage = stage_label a.M.Remediation.action_stage;
               detail = a.M.Remediation.detail;
             }))

let stop t =
  if t.active then begin
    (* the digest may itself record one last Sync op; write it before
       the final line by computing while still active *)
    let d = digest ~at:(now t) ~epoch:t.last_epoch t.fabric in
    put t (Trace.Final d);
    t.active <- false
  end

let lines t = t.nlines

let buffer_sink buf line =
  Buffer.add_string buf (Trace.line_to_string line);
  Buffer.add_char buf '\n'

let channel_sink oc line =
  output_string oc (Trace.line_to_string line);
  output_char oc '\n'
