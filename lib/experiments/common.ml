module T = Ihnet_topology
module U = Ihnet_util

type result = {
  id : string;
  title : string;
  claim : string;
  tables : U.Table.t list;
  verdict : string;
}

let print_result r =
  Printf.printf "\n### %s — %s\n" r.id r.title;
  Printf.printf "paper: %s\n\n" r.claim;
  List.iter U.Table.print r.tables;
  Printf.printf "verdict: %s\n" r.verdict

let fresh_host ?(seed = 42) ?config () = Ihnet.Host.create ~seed ?config Ihnet.Host.Two_socket
let gb r = r /. 1e9

let device_id host name =
  match T.Topology.device_by_name (Ihnet.Host.topology host) name with
  | Some d -> d.T.Device.id
  | None -> failwith ("experiment: no device " ^ name)

let find_link host a b =
  let topo = Ihnet.Host.topology host in
  match T.Topology.links_between topo (device_id host a) (device_id host b) with
  | [ l ] -> l
  | [] -> failwith (Printf.sprintf "experiment: no link %s-%s" a b)
  | _ -> failwith (Printf.sprintf "experiment: ambiguous link %s-%s" a b)

let p50 h = U.Sketch.percentile h 0.5
let p99 h = U.Sketch.percentile h 0.99
