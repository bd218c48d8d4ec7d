module T = Ihnet_topology

type requirement = {
  tenant : int;
  kind : Placement.kind;
  rate : float;
  src : T.Device.id;
  dst : T.Device.id;
  candidates : T.Path.t list;
  work_conserving : bool;
  latency_bound : Ihnet_util.Units.ns option;
  p99_bound : Ihnet_util.Units.ns option;
}

let ( let* ) = Result.bind

let find_device topo name =
  match T.Topology.device_by_name topo name with
  | Some d -> Ok d
  | None -> Error (Mgr_error.Unknown_device name)

let filter_latency latency_bound candidates =
  match latency_bound with
  | None -> candidates
  | Some bound -> List.filter (fun p -> T.Path.base_latency p <= bound) candidates

(* A p99 bound is a latency bound on the tail, so zero-load feasibility
   is the same filter: a path whose base latency already exceeds the
   bound can never meet it. The effective candidate filter is the
   tighter of the two bounds. *)
let effective_bound (intent : Intent.t) =
  match (intent.Intent.latency_bound, intent.Intent.p99_bound) with
  | None, b | b, None -> b
  | Some a, Some b -> Some (Float.min a b)

let compile topo (intent : Intent.t) =
  let* () =
    Result.map_error (fun why -> Mgr_error.Invalid_intent why) (Intent.validate intent)
  in
  let compile_target = function
    | Intent.Pipe { src; dst; rate } ->
      let* s = find_device topo src in
      let* d = find_device topo dst in
      let candidates =
        T.Routing.k_shortest_paths ~k:4 topo s.T.Device.id d.T.Device.id
        |> List.filter (fun (p : T.Path.t) -> p.T.Path.hops <> [])
        |> filter_latency (effective_bound intent)
      in
      if candidates = [] then Error (Mgr_error.No_path { src; dst })
      else
        Ok
          [
            {
              tenant = intent.Intent.tenant;
              kind = Placement.Pipe_fwd;
              rate;
              src = s.T.Device.id;
              dst = d.T.Device.id;
              candidates;
              work_conserving = intent.Intent.work_conserving;
              latency_bound = intent.Intent.latency_bound;
              p99_bound = intent.Intent.p99_bound;
            };
          ]
    | Intent.Hose { endpoint; to_host; from_host } ->
      let* e = find_device topo endpoint in
      let* sock =
        match T.Topology.home_socket topo e with
        | Some s -> Ok s
        | None ->
          Error
            (Mgr_error.No_home_socket
               { device = endpoint; socket = Printf.sprintf "socket%d" e.T.Device.socket })
      in
      let* up =
        match T.Routing.shortest_path topo e.T.Device.id sock.T.Device.id with
        | Some p when p.T.Path.hops <> [] -> Ok p
        | Some _ | None -> Error (Mgr_error.No_uplink endpoint)
      in
      let* down =
        match T.Routing.shortest_path topo sock.T.Device.id e.T.Device.id with
        | Some p when p.T.Path.hops <> [] -> Ok p
        | Some _ | None -> Error (Mgr_error.No_downlink endpoint)
      in
      let mk kind rate (path : T.Path.t) =
        {
          tenant = intent.Intent.tenant;
          kind;
          rate;
          src = path.T.Path.src;
          dst = path.T.Path.dst;
          candidates = [ path ];
          work_conserving = intent.Intent.work_conserving;
          latency_bound = intent.Intent.latency_bound;
          p99_bound = intent.Intent.p99_bound;
        }
      in
      let reqs =
        (if to_host > 0.0 then [ mk Placement.Hose_to_host to_host up ] else [])
        @ if from_host > 0.0 then [ mk Placement.Hose_from_host from_host down ] else []
      in
      Ok reqs
  in
  List.fold_left
    (fun acc target ->
      let* acc = acc in
      let* reqs = compile_target target in
      Ok (acc @ reqs))
    (Ok []) intent.Intent.targets
