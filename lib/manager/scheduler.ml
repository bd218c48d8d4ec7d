module T = Ihnet_topology

type t = {
  topo : T.Topology.t;
  headroom : float;
  ledger : float array; (* per resource = 2*link + dir *)
}

let res_of link_id (dir : T.Link.dir) =
  (2 * link_id) + match dir with T.Link.Fwd -> 0 | T.Link.Rev -> 1

let create topo ?(headroom = 0.9) () =
  if not (headroom > 0.0 && headroom <= 1.0) then
    invalid_arg "Scheduler.create: headroom must be in (0, 1]";
  { topo; headroom; ledger = Array.make (2 * T.Topology.link_count topo) 0.0 }


let limit t link = (T.Topology.link t.topo link).T.Link.capacity *. t.headroom

let reservation_ratio t link dir =
  let lim = limit t link in
  if lim <= 0.0 then infinity else t.ledger.(res_of link dir) /. lim

(* Bottleneck ratio of [path] if [rate] more were reserved on it. *)
let ratio_after t (path : T.Path.t) rate =
  List.fold_left
    (fun acc (h : T.Path.hop) ->
      let link = h.T.Path.link.T.Link.id in
      let lim = limit t link in
      let r =
        if lim <= 0.0 then infinity
        else (t.ledger.(res_of link h.T.Path.dir) +. rate) /. lim
      in
      Float.max acc r)
    0.0 path.T.Path.hops

let charge t (path : T.Path.t) rate =
  List.iter
    (fun (h : T.Path.hop) ->
      let r = res_of h.T.Path.link.T.Link.id h.T.Path.dir in
      t.ledger.(r) <- t.ledger.(r) +. rate)
    path.T.Path.hops

let place t (req : Interpreter.requirement) =
  let scored =
    List.map (fun p -> (ratio_after t p req.Interpreter.rate, p)) req.Interpreter.candidates
  in
  let feasible = List.filter (fun (ratio, _) -> ratio <= 1.0) scored in
  match List.sort (fun (a, _) (b, _) -> compare a b) feasible with
  | [] ->
    let best =
      List.fold_left (fun acc (r, _) -> Float.min acc r) infinity scored
    in
    Error
      (Mgr_error.Capacity_exhausted
         { tenant = req.Interpreter.tenant; rate = req.Interpreter.rate; best_ratio = best })
  | (_, path) :: _ ->
    charge t path req.Interpreter.rate;
    Ok
      {
        Placement.id = Placement.fresh_id ();
        tenant = req.Interpreter.tenant;
        kind = req.Interpreter.kind;
        rate = req.Interpreter.rate;
        path;
        work_conserving = req.Interpreter.work_conserving;
        latency_bound = req.Interpreter.latency_bound;
        p99_bound = req.Interpreter.p99_bound;
        attached = [];
        floor_scale = 1.0;
      }

let release t (p : Placement.t) =
  List.iter
    (fun (h : T.Path.hop) ->
      let r = res_of h.T.Path.link.T.Link.id h.T.Path.dir in
      t.ledger.(r) <- Float.max 0.0 (t.ledger.(r) -. p.Placement.rate))
    p.Placement.path.T.Path.hops

let move t (p : Placement.t) path =
  release t p;
  if ratio_after t path p.Placement.rate <= 1.0 then begin
    charge t path p.Placement.rate;
    p.Placement.path <- path;
    true
  end
  else begin
    charge t p.Placement.path p.Placement.rate;
    false
  end

let place_all t reqs =
  let before = Array.copy t.ledger in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | req :: rest -> (
      match place t req with
      | Ok p -> go (p :: acc) rest
      | Error e ->
        Array.blit before 0 t.ledger 0 (Array.length before);
        Error e)
  in
  go [] reqs

let total_reserved t = Array.fold_left ( +. ) 0.0 t.ledger

let utilization_summary t =
  List.filter_map
    (fun (l : T.Link.t) ->
      let fwd = reservation_ratio t l.T.Link.id T.Link.Fwd in
      let rev = reservation_ratio t l.T.Link.id T.Link.Rev in
      if fwd > 0.0 || rev > 0.0 then Some (l.T.Link.id, fwd, rev) else None)
    (T.Topology.links t.topo)
