type weight = [ `Latency | `Hops | `Inverse_capacity ]

let link_weight w (l : Link.t) =
  match w with
  | `Latency -> l.base_latency +. 1e-9 (* epsilon keeps zero-latency hops counted *)
  | `Hops -> 1.0
  | `Inverse_capacity -> 1.0 /. l.capacity

let path_weight w (p : Path.t) =
  List.fold_left (fun acc (h : Path.hop) -> acc +. link_weight w h.link) 0.0 p.hops

(* Dijkstra with per-device predecessor hop; [avoid] removes links,
   [banned_devices] removes intermediate devices (needed by Yen's spur
   construction). *)
let dijkstra ?(weight = `Latency) ?(avoid = []) ?(banned_devices = []) topo src dst =
  let n = Topology.device_count topo in
  if src < 0 || src >= n || dst < 0 || dst >= n then None
  else if src = dst then Some { Path.src; dst; hops = [] }
  else begin
    let avoid_set = Hashtbl.create 8 in
    List.iter (fun id -> Hashtbl.replace avoid_set id ()) avoid;
    let banned = Array.make n false in
    List.iter (fun d -> if d >= 0 && d < n then banned.(d) <- true) banned_devices;
    let dist = Array.make n infinity in
    let prev : Path.hop option array = Array.make n None in
    let visited = Array.make n false in
    let pq = Ihnet_util.Heap.create () in
    dist.(src) <- 0.0;
    Ihnet_util.Heap.push pq 0.0 src;
    let rec run () =
      match Ihnet_util.Heap.pop pq with
      | None -> ()
      | Some (d, u) ->
        if visited.(u) || d > dist.(u) then run ()
        else if u = dst then () (* settled: the path is final *)
        else begin
          visited.(u) <- true;
          (* endpoint devices terminate paths: only expand from [u] when
             it can carry transit traffic (or is the source itself) *)
          if u = src || Device.can_transit (Topology.device topo u) then
            List.iter
              (fun ((l : Link.t), peer) ->
                if
                  (not (Hashtbl.mem avoid_set l.id))
                  && (not banned.(peer))
                  && not visited.(peer)
                then begin
                  let nd = dist.(u) +. link_weight weight l in
                  if nd < dist.(peer) then begin
                    dist.(peer) <- nd;
                    let dir = if l.a = u then Link.Fwd else Link.Rev in
                    prev.(peer) <- Some { Path.link = l; dir };
                    Ihnet_util.Heap.push pq nd peer
                  end
                end)
              (Topology.neighbors topo u);
          run ()
        end
    in
    run ();
    if dist.(dst) = infinity then None
    else begin
      let rec build acc cur =
        if cur = src then acc
        else
          match prev.(cur) with
          | None -> assert false
          | Some hop ->
            let entered = match hop.dir with Link.Fwd -> hop.link.Link.a | Link.Rev -> hop.link.Link.b in
            build (hop :: acc) entered
      in
      Some { Path.src; dst; hops = build [] dst }
    end
  end

let shortest_path ?weight ?avoid topo src dst = dijkstra ?weight ?avoid topo src dst

let route topo a b =
  let src = Topology.device_named topo a in
  let dst = Topology.device_named topo b in
  match shortest_path topo src.Device.id dst.Device.id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "no path from %s to %s" a b)

let reachable topo src dst = Option.is_some (shortest_path ~weight:`Hops topo src dst)

let path_key (p : Path.t) = List.map (fun (h : Path.hop) -> h.link.Link.id) p.hops

let k_shortest_paths ?(weight = `Latency) ~k topo src dst =
  if k <= 0 then []
  else
    match dijkstra ~weight topo src dst with
    | None -> []
    | Some first ->
      let accepted = ref [ first ] in
      let candidates : (float * Path.t) list ref = ref [] in
      let seen = Hashtbl.create 16 in
      Hashtbl.replace seen (path_key first) ();
      let rec iterate () =
        if List.length !accepted >= k then ()
        else begin
          let prev_path = List.hd (List.rev !accepted) in
          let prev_devs = Array.of_list (Path.devices prev_path) in
          let prev_hops = Array.of_list prev_path.hops in
          (* For each spur node on the previous path, ban the links that
             earlier accepted paths take out of the same root, and the
             root's devices, then find a spur path. *)
          for i = 0 to Array.length prev_hops - 1 do
            let spur_node = prev_devs.(i) in
            let root_hops = Array.to_list (Array.sub prev_hops 0 i) in
            let root_key = List.map (fun (h : Path.hop) -> h.link.Link.id) root_hops in
            let banned_links =
              List.filter_map
                (fun (p : Path.t) ->
                  let hops = Array.of_list p.hops in
                  if Array.length hops > i then begin
                    let pk =
                      List.map
                        (fun (h : Path.hop) -> h.link.Link.id)
                        (Array.to_list (Array.sub hops 0 i))
                    in
                    if pk = root_key then Some hops.(i).link.Link.id else None
                  end
                  else None)
                !accepted
            in
            let banned_devices =
              List.filteri (fun j _ -> j < i) (Array.to_list prev_devs)
            in
            match
              dijkstra ~weight ~avoid:banned_links ~banned_devices topo spur_node dst
            with
            | None -> ()
            | Some spur ->
              let total = { Path.src; dst; hops = root_hops @ spur.hops } in
              let key = path_key total in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                candidates := (path_weight weight total, total) :: !candidates
              end
          done;
          match List.sort (fun (a, _) (b, _) -> compare a b) !candidates with
          | [] -> ()
          | (_, best) :: rest ->
            candidates := rest;
            accepted := !accepted @ [ best ];
            iterate ()
        end
      in
      iterate ();
      !accepted
