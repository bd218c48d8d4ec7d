module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module Sensorfault = Ihnet_engine.Sensorfault
module T = Ihnet_topology
module U = Ihnet_util

type config = {
  period : U.Units.ns;
  rtt_factor : float;
  warmup_rounds : int;
  probe_bytes : int;
}

let default_config () =
  { period = U.Units.ms 1.0; rtt_factor = 3.0; warmup_rounds = 5; probe_bytes = 64 }

type probe_result = {
  src : T.Device.id;
  dst : T.Device.id;
  at : U.Units.ns;
  outcome : [ `Ok of U.Units.ns | `Slow of U.Units.ns | `Lost ];
}

type suspect = {
  link : T.Link.id;
  bad_paths_covered : int;
  score : float;
  paths_crossing : int;
  confidence : float;
}

type pair = {
  p_src : T.Device.id;
  p_dst : T.Device.id;
  path : T.Path.t;
  baseline : U.Stats.Online.t;
  mutable load_flow : Flow.t option;
}

(* confidence horizon: a suspect's confidence is the failed fraction of
   probes crossing it over this many recent rounds, so one unlucky
   blackout round is discounted by the healthy crossings around it *)
let history_rounds = 8

type t = {
  fabric : Fabric.t;
  config : config;
  pairs : pair list;
  rng : U.Rng.t;
  mutable rounds : int;
  mutable last_round : probe_result list;
  mutable history : probe_result list list;
  mutable first_detection : U.Units.ns option;
  mutable stopped : bool;
}

let default_devices topo =
  T.Topology.find_devices topo (fun d -> T.Device.is_io_device d || T.Device.is_socket d)
  |> List.map (fun (d : T.Device.t) -> d.T.Device.id)

let rec round t _sim =
  if not t.stopped then begin
    let now = Fabric.now t.fabric in
    let results =
      List.map
        (fun pair ->
          let loss = Fabric.probe_loss_prob t.fabric pair.path in
          let outcome =
            if U.Rng.float t.rng 1.0 < loss then `Lost
            else begin
              let sample =
                Diagnostics.rtt t.fabric ~probe_bytes:t.config.probe_bytes pair.path
              in
              if t.rounds < t.config.warmup_rounds then begin
                U.Stats.Online.add pair.baseline sample;
                `Ok sample
              end
              else begin
                let base = U.Stats.Online.mean pair.baseline in
                if Float.is_nan base || sample <= t.config.rtt_factor *. base then `Ok sample
                else `Slow sample
              end
            end
          in
          (* a corrupted probe agent at either endpoint falsifies the
             verdict; RNG drawn from only when a fault is present, so
             fault-free runs are bit-identical *)
          let sf =
            Sensorfault.merge
              (Fabric.device_sensor_fault t.fabric pair.p_src)
              (Fabric.device_sensor_fault t.fabric pair.p_dst)
          in
          let outcome =
            if sf.Sensorfault.probe_loss = 0.0 && sf.Sensorfault.probe_slow = 0.0 then outcome
            else if U.Rng.float t.rng 1.0 < sf.Sensorfault.probe_loss then `Lost
            else if U.Rng.float t.rng 1.0 < sf.Sensorfault.probe_slow then (
              match outcome with
              | `Ok s -> `Slow (s *. (t.config.rtt_factor +. 1.0))
              | o -> o)
            else outcome
          in
          (match outcome with
          | (`Lost | `Slow _) when t.rounds >= t.config.warmup_rounds ->
            if t.first_detection = None then t.first_detection <- Some now
          | `Lost | `Slow _ | `Ok _ -> ());
          { src = pair.p_src; dst = pair.p_dst; at = now; outcome })
        t.pairs
    in
    t.last_round <- results;
    let rec take n = function
      | [] -> []
      | _ when n <= 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    t.history <- results :: take (history_rounds - 1) t.history;
    t.rounds <- t.rounds + 1;
    Sim.schedule (Fabric.sim t.fabric) ~after:t.config.period (round t)
  end

let start fabric ?(config = default_config ()) ?devices () =
  let invalidf fmt = Printf.ksprintf invalid_arg fmt in
  if not (config.period > 0.0) then
    invalidf "Heartbeat.start: period must be > 0 (got %g)" config.period;
  if not (config.rtt_factor > 1.0) then
    invalidf "Heartbeat.start: rtt_factor must be > 1 (got %g)" config.rtt_factor;
  if config.warmup_rounds < 1 then
    invalidf "Heartbeat.start: warmup_rounds must be >= 1 (got %d)" config.warmup_rounds;
  let topo = Fabric.topology fabric in
  let devices = match devices with Some ds -> ds | None -> default_devices topo in
  let probe_rate = float_of_int config.probe_bytes /. (config.period /. 1e9) in
  let pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            if src = dst then None
            else
              match T.Routing.shortest_path topo src dst with
              | None -> None
              | Some path when path.T.Path.hops = [] -> None
              | Some path ->
                (* a persistent trickle represents the probe traffic on
                   the fabric; measurements themselves are analytic *)
                let load_flow =
                  Fabric.start_flow fabric ~tenant:0 ~cls:Flow.Probe ~demand:probe_rate
                    ~payload_bytes:config.probe_bytes ~path ~size:Flow.Unbounded ()
                in
                Some
                  {
                    p_src = src;
                    p_dst = dst;
                    path;
                    baseline = U.Stats.Online.create ();
                    load_flow = Some load_flow;
                  })
          devices)
      devices
  in
  let t =
    {
      fabric;
      config;
      pairs;
      rng = U.Rng.split (Fabric.rng fabric);
      rounds = 0;
      last_round = [];
      history = [];
      first_detection = None;
      stopped = false;
    }
  in
  (* first round fires immediately: baselines want an idle-ish fabric *)
  Sim.schedule (Fabric.sim fabric) ~after:0.0 (round t);
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    List.iter
      (fun p ->
        match p.load_flow with
        | Some f ->
          Fabric.stop_flow t.fabric f;
          p.load_flow <- None
        | None -> ())
      t.pairs
  end

let rounds t = t.rounds
let results t = t.last_round

let is_failure = function `Lost | `Slow _ -> true | `Ok _ -> false

let failing_pairs t =
  List.filter_map
    (fun r -> if is_failure r.outcome then Some (r.src, r.dst) else None)
    t.last_round

let path_of t src dst =
  List.find_opt (fun p -> p.p_src = src && p.p_dst = dst) t.pairs
  |> Option.map (fun p -> p.path)

let localize t =
  let bad, good =
    List.partition (fun r -> is_failure r.outcome) t.last_round
  in
  if bad = [] then []
  else begin
    let links_memo = Hashtbl.create 64 in
    let links_of src dst =
      match Hashtbl.find_opt links_memo (src, dst) with
      | Some ls -> ls
      | None ->
        let ls =
          match path_of t src dst with
          | Some p -> List.map (fun (l : T.Link.t) -> l.T.Link.id) (T.Path.links p)
          | None -> []
        in
        Hashtbl.add links_memo (src, dst) ls;
        ls
    in
    let exonerated = Hashtbl.create 32 in
    List.iter
      (fun r -> List.iter (fun l -> Hashtbl.replace exonerated l ()) (links_of r.src r.dst))
      good;
    let bad_paths = List.map (fun r -> links_of r.src r.dst) bad in
    let total_bad = List.length bad_paths in
    (* coverage-discounted confidence: the failed fraction of every
       probe crossing the link over the recent history window. A
       genuinely dead link fails all of them (confidence -> 1 within
       [history_rounds]); a randomly lossy probe agent only produces a
       suspect on a blackout round, and the healthy crossings in the
       rounds around it pull confidence down toward the loss rate. *)
    let hist = List.concat t.history in
    let hist_crossing link =
      List.fold_left
        (fun (cross, failed) r ->
          if List.mem link (links_of r.src r.dst) then
            (cross + 1, if is_failure r.outcome then failed + 1 else failed)
          else (cross, failed))
        (0, 0) hist
    in
    let mk link c =
      let cross, failed = hist_crossing link in
      {
        link;
        bad_paths_covered = c;
        score = float_of_int c /. float_of_int total_bad;
        paths_crossing = cross;
        confidence = float_of_int failed /. float_of_int (max 1 cross);
      }
    in
    (* greedy set cover over non-exonerated links *)
    let candidates =
      List.concat bad_paths
      |> List.filter (fun l -> not (Hashtbl.mem exonerated l))
      |> List.sort_uniq compare
    in
    let uncovered = ref bad_paths in
    let picked = ref [] in
    let continue = ref true in
    while !continue && !uncovered <> [] do
      let best =
        List.fold_left
          (fun acc link ->
            let cover = List.length (List.filter (List.mem link) !uncovered) in
            match acc with
            | Some (_, c) when c >= cover -> acc
            | _ when cover = 0 -> acc
            | _ -> Some (link, cover))
          None
          (List.filter (fun l -> not (List.mem_assoc l !picked)) candidates)
      in
      match best with
      | None -> continue := false
      | Some (link, cover) ->
        picked := (link, cover) :: !picked;
        uncovered := List.filter (fun p -> not (List.mem link p)) !uncovered
    done;
    (* score every candidate by raw coverage, greedy picks first *)
    let coverage link = List.length (List.filter (List.mem link) bad_paths) in
    let greedy = List.rev_map (fun (link, _) -> mk link (coverage link)) !picked in
    let rest =
      candidates
      |> List.filter (fun l -> not (List.mem_assoc l !picked))
      |> List.map (fun link -> mk link (coverage link))
    in
    List.sort (fun a b -> compare b.score a.score) (greedy @ rest)
  end

let healthy t = not (List.exists (fun r -> is_failure r.outcome) t.last_round)
let first_detection t = t.first_detection

let probe_wire_bytes t =
  let topo = Fabric.topology t.fabric in
  List.fold_left
    (fun acc (l : T.Link.t) ->
      acc
      +. Fabric.cls_link_bytes t.fabric l.T.Link.id T.Link.Fwd ~cls:Flow.Probe
      +. Fabric.cls_link_bytes t.fabric l.T.Link.id T.Link.Rev ~cls:Flow.Probe)
    0.0 (T.Topology.links topo)
