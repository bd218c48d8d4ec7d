module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module T = Ihnet_topology
module U = Ihnet_util

type congested_link = {
  link : T.Link.id;
  dir : T.Link.dir;
  label : string;
  utilization : float;
}

type talker = { tenant : int; rate : float }
type socket_cache = { socket : int; hit_rate : float option; write_rate : float }

type t = {
  at : U.Units.ns;
  host : string;
  congested : congested_link list;
  top_talkers : talker list;
  ddio : socket_cache list;
  monitoring_overhead : float;
  tenant_fairness : float;
}

let link_label topo (l : T.Link.t) dir =
  let name id = (T.Topology.device topo id).T.Device.name in
  let a, b =
    match dir with
    | T.Link.Fwd -> (name l.T.Link.a, name l.T.Link.b)
    | T.Link.Rev -> (name l.T.Link.b, name l.T.Link.a)
  in
  Printf.sprintf "%s %s->%s" (T.Link.kind_label l.T.Link.kind) a b

let collect counter ?(tenants = []) () =
  let window = U.Units.ms 1.0 in
  let fabric = Counter.fabric counter in
  let topo = Fabric.topology fabric in
  let links = T.Topology.links topo in
  let dirs = [ T.Link.Fwd; T.Link.Rev ] in
  (* two readings 1 ms apart give per-tenant rates *)
  let before =
    List.concat_map
      (fun (l : T.Link.t) ->
        List.map (fun dir -> ((l.T.Link.id, dir), Counter.read counter l.T.Link.id dir ~tenants)) dirs)
      links
  in
  Sim.run ~until:(Sim.now (Fabric.sim fabric) +. window) (Fabric.sim fabric);
  let congested = ref [] in
  let talker_tbl : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (l : T.Link.t) ->
      List.iter
        (fun dir ->
          let r = Counter.read counter l.T.Link.id dir ~tenants in
          if r.Counter.utilization >= 0.8 then
            congested :=
              {
                link = l.T.Link.id;
                dir;
                label = link_label topo l dir;
                utilization = r.Counter.utilization;
              }
              :: !congested;
          let prev = List.assoc (l.T.Link.id, dir) before in
          List.iter
            (fun (tn, bytes) ->
              let prev_bytes =
                Option.value ~default:0.0 (List.assoc_opt tn prev.Counter.per_tenant)
              in
              let rate = (bytes -. prev_bytes) /. (window /. 1e9) in
              if rate > 0.0 then
                Hashtbl.replace talker_tbl tn
                  (rate +. Option.value ~default:0.0 (Hashtbl.find_opt talker_tbl tn)))
            r.Counter.per_tenant)
        dirs)
    links;
  let top_talkers =
    Hashtbl.fold (fun tenant rate acc -> { tenant; rate } :: acc) talker_tbl []
    |> List.sort (fun a b ->
           (* rate desc, tenant asc on ties: Hashtbl.fold order must not
              leak into the report *)
           match compare b.rate a.rate with 0 -> compare a.tenant b.tenant | c -> c)
  in
  let ddio =
    List.map
      (fun (d : T.Device.t) ->
        let socket = d.T.Device.socket in
        {
          socket;
          hit_rate = Counter.ddio_hit_rate counter ~socket;
          write_rate = Fabric.ddio_write_rate fabric ~socket;
        })
      (T.Topology.sockets topo)
  in
  let monitoring_overhead =
    List.fold_left
      (fun acc (f : Flow.t) ->
        match f.Flow.cls with
        | Flow.Monitoring | Flow.Probe | Flow.Heartbeat -> acc +. f.Flow.rate
        | Flow.Payload | Flow.Induced -> acc)
      0.0 (Fabric.active_flows fabric)
  in
  let tenant_fairness =
    if List.length top_talkers < 2 then nan
    else U.Stats.jain_index (Array.of_list (List.map (fun t -> t.rate) top_talkers))
  in
  {
    at = Fabric.now fabric;
    host = T.Topology.name topo;
    congested =
      List.sort
        (fun a b ->
          match compare b.utilization a.utilization with
          | 0 -> compare (a.link, a.dir) (b.link, b.dir)
          | c -> c)
        !congested;
    top_talkers;
    ddio;
    monitoring_overhead;
    tenant_fairness;
  }

let pp ppf t =
  Format.fprintf ppf "host %s at %a@." t.host U.Units.pp_time t.at;
  (match t.congested with
  | [] -> Format.fprintf ppf "  no congested links@."
  | cs ->
    Format.fprintf ppf "  congested links:@.";
    List.iter
      (fun c -> Format.fprintf ppf "    %-40s %3.0f%%@." c.label (c.utilization *. 100.0))
      cs);
  (match t.top_talkers with
  | [] -> Format.fprintf ppf "  top talkers: (not visible at this counter fidelity)@."
  | ts ->
    Format.fprintf ppf "  top talkers:@.";
    List.iteri
      (fun i talker ->
        if i < 5 then
          Format.fprintf ppf "    tenant %-3d %a@." talker.tenant U.Units.pp_rate talker.rate)
      ts);
  List.iter
    (fun s ->
      Format.fprintf ppf "  socket %d ddio: write %a, hit %s@." s.socket U.Units.pp_rate
        s.write_rate
        (match s.hit_rate with Some h -> Printf.sprintf "%.0f%%" (h *. 100.0) | None -> "n/a"))
    t.ddio;
  if not (Float.is_nan t.tenant_fairness) then
    Format.fprintf ppf "  tenant fairness (jain): %.2f@." t.tenant_fairness;
  Format.fprintf ppf "  monitoring overhead: %a@." U.Units.pp_rate t.monitoring_overhead
