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

let p50 h = U.Sketch.percentile h 0.5
let p99 h = U.Sketch.percentile h 0.99
