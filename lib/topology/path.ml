type hop = { link : Link.t; dir : Link.dir }
type t = { src : Device.id; dst : Device.id; hops : hop list }

let exit_device hop = match hop.dir with Link.Fwd -> hop.link.Link.b | Link.Rev -> hop.link.Link.a
let enter_device hop = match hop.dir with Link.Fwd -> hop.link.Link.a | Link.Rev -> hop.link.Link.b

let devices t = t.src :: List.map exit_device t.hops
let links t = List.map (fun h -> h.link) t.hops
let hop_count t = List.length t.hops

let base_latency t =
  List.fold_left (fun acc h -> acc +. h.link.Link.base_latency) 0.0 t.hops

let reverse t =
  {
    src = t.dst;
    dst = t.src;
    hops = List.rev_map (fun h -> { h with dir = Link.opposite h.dir }) t.hops;
  }

let concat a b =
  if a.dst <> b.src then invalid_arg "Path.concat: paths do not chain";
  { src = a.src; dst = b.dst; hops = a.hops @ b.hops }

let well_formed _topo t =
  let rec walk cur = function
    | [] -> cur = t.dst
    | h :: rest -> enter_device h = cur && walk (exit_device h) rest
  in
  walk t.src t.hops

let pp topo ppf t =
  let names = List.map (fun id -> (Topology.device topo id).Device.name) (devices t) in
  Format.pp_print_string ppf (String.concat " -> " names)
