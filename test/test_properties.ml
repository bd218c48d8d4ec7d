(* Cross-cutting property-based tests: invariants that must hold for
   arbitrary inputs, checked with qcheck. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module R = Ihnet_manager

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* {1 Fairshare} *)

(* A random solver problem: up to [max_nr] resources and [max_n]
   demands with random weights, floors (including jointly infeasible
   ones), caps and overlapping multi-resource usages. *)
let gen_case ~max_nr ~max_n =
  QCheck.Gen.(
    int_range 1 max_nr >>= fun nr ->
    array_size (return nr) (float_range 5.0 500.0) >>= fun caps ->
    let gen_demand =
      float_range 0.1 8.0 >>= fun weight ->
      float_range 0.0 20.0 >>= fun floor ->
      oneof [ return infinity; float_range 0.1 50.0 ] >>= fun cap ->
      list_size (int_range 1 5) (pair (int_range 0 (nr - 1)) (float_range 0.5 2.0))
      >>= fun usage ->
      let usage = List.sort_uniq (fun (a, _) (b, _) -> compare a b) usage in
      let res = Array.of_list (List.map fst usage) and coeff = Array.of_list (List.map snd usage) in
      return { E.Fairshare.weight; floor; cap; res; coeff }
    in
    array_size (int_range 1 max_n) gen_demand >>= fun demands -> return (caps, demands))

let print_case (caps, demands) =
  let b = Buffer.create 256 in
  Buffer.add_string b "caps=[";
  Array.iter (fun c -> Buffer.add_string b (Printf.sprintf "%g;" c)) caps;
  Buffer.add_string b "] demands=[";
  Array.iter
    (fun (d : E.Fairshare.demand) ->
      Buffer.add_string b
        (Printf.sprintf "{w=%g f=%g c=%g u=[%s]};" d.weight d.floor d.cap
           (String.concat ";"
              (Array.to_list (Array.mapi (fun j r -> Printf.sprintf "%d:%g" r d.coeff.(j)) d.res)))))
    demands;
  Buffer.add_string b "]";
  Buffer.contents b

let fairshare_props =
  [
    prop "weighted fairness on one link: rates proportional to weights"
      QCheck.(list_of_size Gen.(int_range 2 8) (float_range 0.5 8.0))
      (fun weights ->
        let demands =
          Array.of_list
            (List.map
               (fun w ->
                 { E.Fairshare.weight = w; floor = 0.0; cap = infinity; res = [| 0 |]; coeff = [| 1.0 |] })
               weights)
        in
        let rates = E.Fairshare.allocate ~capacities:[| 100.0 |] demands in
        (* all unconstrained flows share one bottleneck: rate_i/w_i equal *)
        let ratios =
          Array.to_list (Array.mapi (fun i r -> r /. demands.(i).E.Fairshare.weight) rates)
        in
        match ratios with
        | [] -> true
        | r0 :: rest -> List.for_all (fun r -> Float.abs (r -. r0) < 1e-6 *. Float.max 1.0 r0) rest);
    prop "work conservation: a single bottleneck is filled"
      QCheck.(pair (int_range 1 10) (float_range 10.0 1000.0))
      (fun (n, cap) ->
        let demands =
          Array.init n (fun _ ->
              { E.Fairshare.weight = 1.0; floor = 0.0; cap = infinity; res = [| 0 |]; coeff = [| 1.0 |] })
        in
        let rates = E.Fairshare.allocate ~capacities:[| cap |] demands in
        let total = Array.fold_left ( +. ) 0.0 rates in
        Float.abs (total -. cap) < 1e-6 *. cap);
    prop "caps below fair share are exact"
      QCheck.(float_range 1.0 20.0)
      (fun cap_v ->
        let demands =
          [|
            { E.Fairshare.weight = 1.0; floor = 0.0; cap = cap_v; res = [| 0 |]; coeff = [| 1.0 |] };
            { E.Fairshare.weight = 1.0; floor = 0.0; cap = infinity; res = [| 0 |]; coeff = [| 1.0 |] };
          |]
        in
        let rates = E.Fairshare.allocate ~capacities:[| 100.0 |] demands in
        Float.abs (rates.(0) -. cap_v) < 1e-6
        && Float.abs (rates.(1) -. (100.0 -. cap_v)) < 1e-4);
    (* Differential oracle: the event-driven allocate must reproduce the
       round-based reference on arbitrary inputs — random resource
       pools, weights, floors (including jointly infeasible ones), caps
       and overlapping multi-resource usages. *)
    prop "event-driven allocate matches the reference oracle" ~count:1000
      (QCheck.make ~print:print_case (gen_case ~max_nr:8 ~max_n:40))
      (fun (caps, demands) ->
        let fast = E.Fairshare.allocate ~capacities:caps demands in
        let oracle = E.Fairshare.allocate_reference ~capacities:caps demands in
        Array.for_all2
          (fun a b ->
            Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)))
          fast oracle);
    (* The solver keeps a grow-only workspace per domain. Solving a run
       of growing and shrinking problems on this (warm) domain, in
       reverse order on a fresh domain (a cold workspace), and on two
       pool domains at once must give the same bits: a workspace slot
       left over from a larger earlier problem never leaks into a
       later result. *)
    prop "the solver workspace is invisible: warm, cold and two-domain solves agree bitwise"
      ~count:100
      (QCheck.make
         ~print:(fun cases -> String.concat "\n" (List.map print_case cases))
         QCheck.Gen.(list_size (int_range 1 6) (gen_case ~max_nr:16 ~max_n:200)))
      (fun cases ->
        let solve (caps, demands) = E.Fairshare.allocate ~capacities:caps demands in
        let bits rates = Array.map Int64.bits_of_float rates in
        let warm = List.map (fun c -> bits (solve c)) cases in
        let cold =
          Domain.join
            (Domain.spawn (fun () -> List.rev_map (fun c -> bits (solve c)) (List.rev cases)))
        in
        let pooled =
          let pool = U.Pool.create 2 in
          let cases = Array.of_list cases in
          Fun.protect
            ~finally:(fun () -> U.Pool.shutdown pool)
            (fun () -> U.Pool.map pool (Array.length cases) (fun i -> bits (solve cases.(i))))
        in
        warm = cold && warm = Array.to_list pooled);
  ]

(* {1 Routing optimality} *)

let routing_props =
  let topo = T.Builder.two_socket_server () in
  let n = T.Topology.device_count topo in
  (* exhaustive shortest-path latencies by Bellman-Ford-ish relaxation,
     honoring the same transit rule as Dijkstra *)
  let brute_force src =
    let dist = Array.make n infinity in
    dist.(src) <- 0.0;
    for _ = 1 to n do
      List.iter
        (fun (l : T.Link.t) ->
          let w = l.T.Link.base_latency +. 1e-9 in
          let relax a b =
            let transit_ok = a = src || T.Device.can_transit (T.Topology.device topo a) in
            if transit_ok && dist.(a) +. w < dist.(b) then dist.(b) <- dist.(a) +. w
          in
          relax l.T.Link.a l.T.Link.b;
          relax l.T.Link.b l.T.Link.a)
        (T.Topology.links topo)
    done;
    dist
  in
  [
    prop "dijkstra distance equals brute-force relaxation"
      QCheck.(pair (int_range 0 100) (int_range 0 100))
      (fun (a, b) ->
        let a = a mod n and b = b mod n in
        let expected = (brute_force a).(b) in
        match T.Routing.shortest_path topo a b with
        | None -> expected = infinity
        | Some p ->
          let got =
            List.fold_left
              (fun acc (l : T.Link.t) -> acc +. l.T.Link.base_latency +. 1e-9)
              0.0 (T.Path.links p)
          in
          Float.abs (got -. expected) < 1e-6);
  ]

(* {1 Path algebra} *)

let path_props =
  let topo = T.Builder.two_socket_server () in
  let n = T.Topology.device_count topo in
  let presets =
    [|
      topo; T.Builder.dgx_like (); T.Builder.epyc_like (); T.Builder.minimal ();
    |]
  in
  [
    prop "reverse is an involution and stays well-formed" ~count:1000
      QCheck.(triple (int_range 0 3) (int_range 0 1000) (int_range 0 1000))
      (fun (k, a, b) ->
        let topo = presets.(k) in
        let n = T.Topology.device_count topo in
        let a = a mod n and b = b mod n in
        match T.Routing.shortest_path topo a b with
        | None -> true
        | Some p ->
          let r = T.Path.reverse p in
          T.Path.well_formed topo r
          && T.Path.reverse r = p
          && T.Path.devices r = List.rev (T.Path.devices p));
    prop "concat of a path split at any hop reproduces it"
      QCheck.(pair (int_range 0 100) (int_range 0 100))
      (fun (a, b) ->
        let a = a mod n and b = b mod n in
        match T.Routing.shortest_path topo a b with
        | None | Some { T.Path.hops = []; _ } -> true
        | Some p ->
          let hops = Array.of_list p.T.Path.hops in
          let k = Array.length hops / 2 in
          let devs = Array.of_list (T.Path.devices p) in
          let mid = devs.(k) in
          let left = { T.Path.src = p.T.Path.src; dst = mid; hops = Array.to_list (Array.sub hops 0 k) } in
          let right =
            { T.Path.src = mid; dst = p.T.Path.dst; hops = Array.to_list (Array.sub hops k (Array.length hops - k)) }
          in
          T.Path.concat left right = p);
  ]

(* {1 Scheduler ledger} *)

let scheduler_props =
  [
    prop "random place/release sequences keep the ledger sane" ~count:100
      QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_range 0 5) (float_range 0.1 20.0)))
      (fun ops ->
        let topo = T.Builder.two_socket_server () in
        let sched = R.Scheduler.create topo () in
        let endpoints = [| "nic0"; "nic1"; "gpu0"; "ssd0"; "gpu1"; "nic2" |] in
        let placed = ref [] in
        List.iter
          (fun (which, gb) ->
            if which < 4 || !placed = [] then begin
              (* place *)
              let src = endpoints.(which mod Array.length endpoints) in
              match
                R.Interpreter.compile topo
                  (R.Intent.pipe ~tenant:1 ~src ~dst:"socket0" ~rate:(gb *. 1e9))
              with
              | Ok [ req ] -> (
                match R.Scheduler.place sched req with
                | Ok p -> placed := p :: !placed
                | Error _ -> ())
              | Ok _ | Error _ -> ()
            end
            else begin
              (* release the most recent *)
              match !placed with
              | p :: rest ->
                R.Scheduler.release sched p;
                placed := rest
              | [] -> ()
            end)
          ops;
        (* invariant: no link over headroom, total = sum of live placements *)
        let ok_ratios =
          List.for_all
            (fun (l : T.Link.t) ->
              R.Scheduler.reservation_ratio sched l.T.Link.id T.Link.Fwd <= 1.0 +. 1e-9
              && R.Scheduler.reservation_ratio sched l.T.Link.id T.Link.Rev <= 1.0 +. 1e-9)
            (T.Topology.links topo)
        in
        let expected_total =
          List.fold_left
            (fun acc (p : R.Placement.t) ->
              acc +. (p.R.Placement.rate *. float_of_int (T.Path.hop_count p.R.Placement.path)))
            0.0 !placed
        in
        ok_ratios && Float.abs (R.Scheduler.total_reserved sched -. expected_total) < 1.0);
  ]

(* {1 Histogram accuracy} *)

let histogram_props =
  [
    prop "histogram percentiles within 4% of exact"
      QCheck.(list_of_size Gen.(int_range 50 300) (float_range 1.0 1e6))
      (fun xs ->
        let h = U.Sketch.create ~sub:64 () in
        List.iter (U.Sketch.record h) xs;
        let sorted = Array.of_list xs in
        Array.sort compare sorted;
        let n = Array.length sorted in
        List.for_all
          (fun q ->
            (* the nearest-rank sample: the one whose bucket the
               estimate reports from *)
            let exact = sorted.(max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)) in
            Float.abs (U.Sketch.percentile h q -. exact) /. exact < 0.04)
          [ 0.5; 0.9; 0.99 ]);
  ]

(* {1 Sim ordering} *)

let sim_props =
  [
    prop "events always fire in non-decreasing time order"
      QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0.0 1e6))
      (fun delays ->
        let sim = E.Sim.create () in
        let fired = ref [] in
        List.iter (fun d -> E.Sim.schedule sim ~after:d (fun s -> fired := E.Sim.now s :: !fired)) delays;
        E.Sim.run sim;
        let times = List.rev !fired in
        List.length times = List.length delays
        && fst
             (List.fold_left
                (fun (ok, prev) t -> (ok && t >= prev, t))
                (true, neg_infinity) times));
  ]

(* {1 Byte conservation} *)

let conservation_props =
  [
    prop "counter bytes equal rate * time for constant flows" ~count:50
      QCheck.(pair (float_range 0.1 5.0) (float_range 0.5 5.0))
      (fun (gb, ms) ->
        let topo = T.Builder.minimal () in
        let sim = E.Sim.create () in
        let fab = E.Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let rate = gb *. 1e9 in
        ignore (E.Fabric.start_flow fab ~tenant:1 ~demand:rate ~path:p ~size:E.Flow.Unbounded ());
        E.Sim.run ~until:(U.Units.ms ms) sim;
        (* last hop is a memory channel: coefficient 1, so wire = goodput *)
        let hop = List.nth p.T.Path.hops (List.length p.T.Path.hops - 1) in
        let bytes = E.Fabric.link_bytes fab hop.T.Path.link.T.Link.id hop.T.Path.dir in
        let expected = rate *. (ms /. 1e3) in
        Float.abs (bytes -. expected) < 1e-6 *. expected +. 1.0);
  ]

let suites =
  [
    ("props.fairshare", fairshare_props);
    ("props.routing", routing_props);
    ("props.path", path_props);
    ("props.scheduler", scheduler_props);
    ("props.histogram", histogram_props);
    ("props.sim", sim_props);
    ("props.conservation", conservation_props);
  ]
