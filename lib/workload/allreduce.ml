module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module T = Ihnet_topology
module U = Ihnet_util

type config = {
  tenant : int;
  ring : string list;
  data_bytes : float;
  iterations : int;
}

type t = {
  fabric : Fabric.t;
  config : config;
  edges : T.Path.t list; (* gpu_i -> gpu_{i+1}, cyclic *)
  times : U.Sketch.t;
  mutable iters : int;
  mutable running : bool;
  mutable live : Flow.t list;
}

let ring_edges fabric ring =
  let topo = Fabric.topology fabric in
  let n = List.length ring in
  List.mapi
    (fun i a ->
      let p = T.Routing.route topo a (List.nth ring ((i + 1) mod n)) in
      if p.T.Path.hops = [] then invalid_arg "Allreduce: ring devices not connected";
      p)
    ring

let start fabric config =
  if List.length config.ring < 2 then invalid_arg "Allreduce: ring needs >= 2 devices";
  if not (config.data_bytes > 0.0) then
    invalid_arg
      (Printf.sprintf "Allreduce.start: data_bytes must be > 0 (got %g)" config.data_bytes);
  if config.iterations < 1 then
    invalid_arg
      (Printf.sprintf "Allreduce.start: iterations must be >= 1 (got %d)" config.iterations);
  let t =
    {
      fabric;
      config;
      edges = ring_edges fabric config.ring;
      times = U.Sketch.create ();
      iters = 0;
      running = true;
      live = [];
    }
  in
  let n = List.length config.ring in
  let chunk = config.data_bytes /. float_of_int n in
  let steps_per_iter = 2 * (n - 1) in
  let rec step ~iteration_start ~remaining_steps =
    if t.running then begin
      if remaining_steps = 0 then begin
        let now = Fabric.now t.fabric in
        U.Sketch.record t.times (now -. iteration_start);
        t.iters <- t.iters + 1;
        if t.iters < t.config.iterations then
          step ~iteration_start:now ~remaining_steps:steps_per_iter
        else t.running <- false
      end
      else begin
        let outstanding = ref (List.length t.edges) in
        t.live <-
          List.map
            (fun path ->
              Fabric.start_flow t.fabric ~tenant:t.config.tenant ~path ~size:(Flow.Bytes chunk)
                ~on_complete:(fun f ->
                  t.live <- List.filter (fun (x : Flow.t) -> x.Flow.id <> f.Flow.id) t.live;
                  decr outstanding;
                  if !outstanding = 0 then
                    step ~iteration_start ~remaining_steps:(remaining_steps - 1))
                ())
            t.edges
      end
    end
  in
  step ~iteration_start:(Fabric.now fabric) ~remaining_steps:steps_per_iter;
  t

let stop t =
  if t.running then begin
    t.running <- false;
    List.iter (Fabric.stop_flow t.fabric) t.live;
    t.live <- []
  end

let iterations_done t = t.iters
let iteration_times t = t.times
let running t = t.running

let algorithmic_bandwidth t =
  if U.Sketch.count t.times = 0 then nan
  else begin
    let median = U.Sketch.percentile t.times 0.5 in
    t.config.data_bytes /. (median /. 1e9)
  end

(* {1 Ring placement} *)

let ring_cost topo ring =
  let ids = List.map (fun name -> (T.Topology.device_named topo name).T.Device.id) ring in
  let n = List.length ids in
  List.fold_left ( +. ) 0.0
    (List.mapi
       (fun i a ->
         match T.Routing.shortest_path topo a (List.nth ids ((i + 1) mod n)) with
         | Some p -> T.Path.base_latency p
         | None -> infinity)
       ids)

(* all permutations of [xs] *)
let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) xs in
        List.map (fun p -> x :: p) (permutations rest))
      xs

let optimize_ring topo ring =
  match ring with
  | [] | [ _ ] -> ring
  | first :: rest ->
    let candidates = List.map (fun p -> first :: p) (permutations rest) in
    let best, _ =
      List.fold_left
        (fun (best, best_cost) candidate ->
          let cost = ring_cost topo candidate in
          if cost < best_cost then (candidate, cost) else (best, best_cost))
        (ring, ring_cost topo ring)
        candidates
    in
    best
