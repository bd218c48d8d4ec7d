(* Unit, integration and property tests for ihnet_engine. *)

open Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util.Units

let tc name f = Alcotest.test_case name `Quick f
let check_close ?(eps = 1e-6) msg expected actual = Alcotest.(check (float eps)) msg expected actual

(* {1 Sim core} *)

let sim_tests =
  [
    tc "events fire in time order" (fun () ->
        let sim = Sim.create () in
        let log = ref [] in
        Sim.schedule sim ~after:30.0 (fun _ -> log := 3 :: !log);
        Sim.schedule sim ~after:10.0 (fun _ -> log := 1 :: !log);
        Sim.schedule sim ~after:20.0 (fun _ -> log := 2 :: !log);
        Sim.run sim;
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
        check_close "clock" 30.0 (Sim.now sim));
    tc "equal-time events fire FIFO" (fun () ->
        let sim = Sim.create () in
        let log = ref [] in
        List.iter (fun i -> Sim.schedule sim ~after:5.0 (fun _ -> log := i :: !log)) [ 1; 2; 3 ];
        Sim.run sim;
        Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !log));
    tc "run ~until stops the clock exactly" (fun () ->
        let sim = Sim.create () in
        let fired = ref false in
        Sim.schedule sim ~after:100.0 (fun _ -> fired := true);
        Sim.run ~until:50.0 sim;
        Alcotest.(check bool) "not yet" false !fired;
        check_close "clock" 50.0 (Sim.now sim);
        Sim.run sim;
        Alcotest.(check bool) "eventually" true !fired);
    tc "events can schedule events" (fun () ->
        let sim = Sim.create () in
        let count = ref 0 in
        let rec tick _s =
          incr count;
          if !count < 5 then Sim.schedule sim ~after:1.0 tick
        in
        Sim.schedule sim ~after:1.0 tick;
        Sim.run sim;
        Alcotest.(check int) "five" 5 !count;
        check_close "clock" 5.0 (Sim.now sim));
    tc "every fires periodically until bound" (fun () ->
        let sim = Sim.create () in
        let count = ref 0 in
        Sim.every sim ~period:10.0 ~until:55.0 (fun _ -> incr count);
        Sim.run sim;
        Alcotest.(check int) "five ticks" 5 !count);
    tc "schedule_at clamps the past" (fun () ->
        let sim = Sim.create () in
        Sim.schedule sim ~after:10.0 (fun s -> Sim.schedule_at s 5.0 (fun _ -> ()));
        Sim.run sim;
        check_close "clock" 10.0 (Sim.now sim));
    tc "schedule, schedule_at and every refuse a bad time, naming the field" (fun () ->
        let sim = Sim.create () in
        let refuses msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
        refuses "Sim.schedule: after must be >= 0 (got nan)" (fun () ->
            Sim.schedule sim ~after:nan ignore);
        refuses "Sim.schedule: after must be >= 0 (got -1)" (fun () ->
            Sim.schedule sim ~after:(-1.0) ignore);
        refuses "Sim.schedule_at: time must not be NaN" (fun () -> Sim.schedule_at sim nan ignore);
        refuses "Sim.every: period must be > 0 (got nan)" (fun () ->
            Sim.every sim ~period:nan ignore);
        refuses "Sim.every: period must be > 0 (got 0)" (fun () ->
            Sim.every sim ~period:0.0 ignore);
        Alcotest.(check int) "nothing queued" 0 (Sim.pending sim));
  ]

(* {2 Skipping the idle firings of a periodic chain}

   A chain fires every [period] from time 0. While it has work it logs
   the firing and uses up one unit; with none, a firing does nothing.
   The skipping chain schedules the firing after an idle one at
   [Sim.next_live]; the reference fires every period. A random script
   drives both sims the same way: runs to grid-aligned, random and
   zero-length horizons, work set between runs, and events (at grid
   and random times, so equal times occur) that log themselves, set
   the work, schedule further events, step the sim or run it to a
   nested horizon. Every firing with work, every event, and the clock
   and queue length after every run must match. *)

type when_ = Grid of int | After of float

type act = Set_work of int | Spawn of when_ * ev | Nest of when_ | Nested_step
and ev = { id : int; acts : act list }

type top = Run of when_ | Work of int | Sched of when_ * ev | Top_step

type entry = Fire of float | Event of int * float | Ran of float * int

let rec pp_when = function Grid i -> Printf.sprintf "g%d" i | After d -> Printf.sprintf "+%h" d

and pp_ev e = Printf.sprintf "ev%d[%s]" e.id (String.concat "; " (List.map pp_act e.acts))

and pp_act = function
  | Set_work n -> Printf.sprintf "work %d" n
  | Spawn (w, e) -> Printf.sprintf "spawn %s %s" (pp_when w) (pp_ev e)
  | Nest w -> "run " ^ pp_when w
  | Nested_step -> "step"

let pp_top = function
  | Run w -> "run " ^ pp_when w
  | Work n -> Printf.sprintf "work %d" n
  | Sched (w, e) -> Printf.sprintf "at %s %s" (pp_when w) (pp_ev e)
  | Top_step -> "step"

let grid_len = 64

let gen_skip_script =
  let open QCheck.Gen in
  let when_ =
    frequency
      [
        (3, map (fun i -> Grid i) (int_bound (grid_len - 1)));
        (2, map (fun d -> After d) (float_bound_inclusive 6.0));
        (1, return (After 0.0));
      ]
  in
  let ev =
    fix
      (fun self depth ->
        let act =
          frequency
            ([
               (3, map (fun n -> Set_work n) (int_bound 3));
               (1, map (fun w -> Nest w) when_);
               (1, return Nested_step);
             ]
            @ if depth > 0 then [ (2, map2 (fun w e -> Spawn (w, e)) when_ (self (depth - 1))) ] else [])
        in
        map2 (fun id acts -> { id; acts }) (int_bound 99) (list_size (int_bound 3) act))
      2
  in
  let top =
    frequency
      [
        (4, map (fun w -> Run w) when_);
        (2, map (fun n -> Work n) (int_bound 3));
        (4, map2 (fun w e -> Sched (w, e)) when_ ev);
        (1, return Top_step);
      ]
  in
  pair (oneofl [ 1.0; 0.1; 0.3; 2.5 ]) (list_size (int_range 1 16) top)

(* the log of [script] run with a chain that skips idle firings or not *)
let run_skip_script ~skip (period, script) =
  let sim = Sim.create () and work = ref 0 and log = ref [] in
  let note e = log := e :: !log in
  let grid = Array.make grid_len 0.0 in
  for i = 1 to grid_len - 1 do
    grid.(i) <- grid.(i - 1) +. period
  done;
  let at = function Grid i -> grid.(i) | After d -> Sim.now sim +. d in
  let ran () = note (Ran (Sim.now sim, Sim.pending sim)) in
  let rec fire s =
    if !work > 0 then begin
      note (Fire (Sim.now s));
      decr work
    end;
    if skip && !work = 0 then Sim.schedule_at s (Sim.next_live s ~period) fire
    else Sim.schedule s ~after:period fire
  in
  let rec event e s =
    note (Event (e.id, Sim.now s));
    List.iter
      (function
        | Set_work n -> work := n
        | Spawn (w, e') -> Sim.schedule_at s (at w) (event e')
        | Nest w ->
          Sim.run ~until:(at w) s;
          ran ()
        | Nested_step -> ignore (Sim.step s))
      e.acts
  in
  Sim.schedule sim ~after:0.0 fire;
  List.iter
    (function
      | Run w ->
        Sim.run ~until:(at w) sim;
        ran ()
      | Work n -> work := n
      | Sched (w, e) -> Sim.schedule_at sim (at w) (event e)
      | Top_step ->
        ignore (Sim.step sim);
        ran ())
    script;
  List.rev !log

let sim_skip_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"a chain that skips its idle firings matches one firing every period"
         ~count:5000
         (QCheck.make
            ~print:(fun (p, s) -> Printf.sprintf "period %h: %s" p (String.concat " | " (List.map pp_top s)))
            gen_skip_script)
         (fun script -> run_skip_script ~skip:true script = run_skip_script ~skip:false script));
    tc "next_live reads the innermost run ~until, and none after a run raised" (fun () ->
        let sim = Sim.create () in
        Sim.schedule sim ~after:100.0 ignore;
        check_close "outside any run" 10.0 (Sim.next_live sim ~period:10.0);
        Sim.schedule sim ~after:5.0 (fun s ->
            check_close "inside run ~until:50" 55.0 (Sim.next_live s ~period:10.0);
            Sim.schedule s ~after:2.0 (fun s ->
                check_close "inside a nested run ~until:20" 27.0 (Sim.next_live s ~period:10.0));
            Sim.run ~until:20.0 s;
            check_close "back in run ~until:50" 60.0 (Sim.next_live s ~period:10.0);
            failwith "boom");
        Alcotest.check_raises "the event's exception" (Failure "boom") (fun () ->
            Sim.run ~until:50.0 sim);
        check_close "clock" 20.0 (Sim.now sim);
        check_close "after the raise" 30.0 (Sim.next_live sim ~period:10.0));
  ]

(* {1 Fairshare} *)

(* a demand from (resource, coefficient) pairs, hop order *)
let fs_demand ?(weight = 1.0) ?(floor = 0.0) ?(cap = infinity) usage =
  {
    Fairshare.weight;
    floor;
    cap;
    res = Array.of_list (List.map fst usage);
    coeff = Array.of_list (List.map snd usage);
  }

let fairshare_tests =
  [
    tc "two equal flows split a link evenly" (fun () ->
        let rates =
          Fairshare.allocate ~capacities:[| 100.0 |]
            [| fs_demand [ (0, 1.0) ]; fs_demand [ (0, 1.0) ] |]
        in
        check_close "a" 50.0 rates.(0);
        check_close "b" 50.0 rates.(1));
    tc "weights bias the split" (fun () ->
        let rates =
          Fairshare.allocate ~capacities:[| 90.0 |]
            [| fs_demand ~weight:2.0 [ (0, 1.0) ]; fs_demand ~weight:1.0 [ (0, 1.0) ] |]
        in
        check_close "2/3" 60.0 rates.(0);
        check_close "1/3" 30.0 rates.(1));
    tc "caps are respected and spare capacity redistributed" (fun () ->
        let rates =
          Fairshare.allocate ~capacities:[| 100.0 |]
            [| fs_demand ~cap:10.0 [ (0, 1.0) ]; fs_demand [ (0, 1.0) ] |]
        in
        check_close "capped" 10.0 rates.(0);
        check_close "rest" 90.0 rates.(1));
    tc "floors are honored under pressure" (fun () ->
        let rates =
          Fairshare.allocate ~capacities:[| 100.0 |]
            [| fs_demand ~floor:80.0 [ (0, 1.0) ]; fs_demand [ (0, 1.0) ] |]
        in
        Alcotest.(check bool) "floor kept" true (rates.(0) >= 80.0 -. 1e-6);
        Alcotest.(check bool) "work conserving" true (rates.(0) +. rates.(1) >= 100.0 -. 1e-6));
    tc "infeasible floors scale down locally" (fun () ->
        let rates =
          Fairshare.allocate ~capacities:[| 100.0; 100.0 |]
            [|
              fs_demand ~floor:80.0 [ (0, 1.0) ];
              fs_demand ~floor:80.0 [ (0, 1.0) ];
              fs_demand ~floor:50.0 [ (1, 1.0) ];
            |]
        in
        check_close "scaled a" 50.0 rates.(0);
        check_close "scaled b" 50.0 rates.(1);
        (* the flow on the healthy resource keeps its full floor *)
        Alcotest.(check bool) "unaffected" true (rates.(2) >= 50.0 -. 1e-6));
    tc "multi-hop flow limited by its bottleneck" (fun () ->
        let rates =
          Fairshare.allocate ~capacities:[| 100.0; 30.0 |]
            [| fs_demand [ (0, 1.0); (1, 1.0) ]; fs_demand [ (0, 1.0) ] |]
        in
        check_close "bottlenecked" 30.0 rates.(0);
        check_close "fills the rest" 70.0 rates.(1));
    tc "coefficients consume extra capacity" (fun () ->
        (* coefficient 2: wire cost is twice the goodput *)
        let rates = Fairshare.allocate ~capacities:[| 100.0 |] [| fs_demand [ (0, 2.0) ] |] in
        check_close "half goodput" 50.0 rates.(0));
    tc "empty usage gets its cap" (fun () ->
        let rates = Fairshare.allocate ~capacities:[||] [| fs_demand ~cap:42.0 [] |] in
        check_close "cap" 42.0 rates.(0));
    tc "no demands, no rates" (fun () ->
        Alcotest.(check int) "empty" 0 (Array.length (Fairshare.allocate ~capacities:[| 1.0 |] [||])));
    tc "three unit-weight flows split evenly" (fun () ->
        let rates = Fairshare.allocate ~capacities:[| 60.0 |] (Array.make 3 (fs_demand [ (0, 1.0) ])) in
        Array.iter (fun r -> check_close "even" 20.0 r) rates);
    tc "allocate_into solves a prefix and touches nothing past it" (fun () ->
        let capacities = [| 100.0; 40.0 |] in
        let prefix =
          [|
            fs_demand ~floor:5.0 [ (0, 1.0); (1, 1.0) ];
            fs_demand ~cap:30.0 [ (0, 1.0) ];
            fs_demand ~weight:2.0 [ (0, 1.5) ];
          |]
        in
        (* past the prefix: a demand that would fail validation *)
        let demands = Array.append prefix [| fs_demand ~weight:Float.nan [ (7, 1.0) ] |] in
        let out = Array.make 6 (-7.0) in
        Fairshare.allocate_into ~capacities ~n:3 demands out;
        let bits a = Array.map Int64.bits_of_float a in
        Alcotest.(check (array int64)) "prefix rates are allocate's, bit for bit"
          (bits (Fairshare.allocate ~capacities prefix)) (bits (Array.sub out 0 3));
        Alcotest.(check (array (float 0.0))) "out past n untouched" [| -7.0; -7.0; -7.0 |]
          (Array.sub out 3 3));
    tc "allocate_into refuses a bad n or a short output" (fun () ->
        let capacities = [| 10.0 |] in
        let demands = [| fs_demand [ (0, 1.0) ]; fs_demand [ (0, 1.0) ] |] in
        let refused what f =
          match f () with
          | () -> Alcotest.failf "%s was accepted" what
          | exception Invalid_argument _ -> ()
        in
        refused "n = -1" (fun () ->
            Fairshare.allocate_into ~capacities ~n:(-1) demands (Array.make 2 0.0));
        refused "n past the demands" (fun () ->
            Fairshare.allocate_into ~capacities ~n:3 demands (Array.make 3 0.0));
        refused "an output shorter than n" (fun () ->
            Fairshare.allocate_into ~capacities ~n:2 demands (Array.make 1 0.0)));
    (* The solver's scratch lives in a per-domain workspace, so a warm
       solve allocates nothing on the major heap: words counted as
       allocated there but not promoted from the minor heap were
       allocated there directly (any array over 256 words). Minor
       words are not pinned: floats crossing a module boundary are
       boxed unless the compiler inlines across modules. *)
    tc "a warm solve allocates nothing directly on the major heap" (fun () ->
        let n = 1000 and nr = 64 in
        let capacities = Array.init nr (fun r -> 80.0 +. float_of_int (r mod 7)) in
        let demands =
          Array.init n (fun i ->
              fs_demand
                ~weight:(1.0 +. (0.01 *. float_of_int (i mod 37)))
                ~floor:0.01
                ~cap:(if i mod 4 = 0 then 5.0 +. (0.37 *. float_of_int (i mod 59)) else infinity)
                (List.sort_uniq
                   (fun (a, _) (b, _) -> compare a b)
                   [ (i mod nr, 1.0); (((i * 7) + 1) mod nr, 1.1); (((i * 13) + 5) mod nr, 1.0) ]))
        in
        let out = Array.make n 0.0 in
        Fairshare.allocate_into ~capacities ~n demands out;
        let direct_major f =
          let _, promoted0, major0 = Gc.counters () in
          f ();
          let _, promoted1, major1 = Gc.counters () in
          int_of_float (major1 -. major0 -. (promoted1 -. promoted0))
        in
        Alcotest.(check int) "allocate_into: 0 words" 0
          (direct_major (fun () -> Fairshare.allocate_into ~capacities ~n demands out));
        Alcotest.(check int) "allocate: its n+1-word result" (n + 1)
          (direct_major (fun () ->
               ignore (Sys.opaque_identity (Fairshare.allocate ~capacities demands)))));
    (* The oracle property bounds the solver's error; this pins its
       bits. The fabric's digests hash raw rate bits, so a rewrite of
       the solver must leave every rate bit where it was, not merely
       close. The cases come from a fixed LCG and cover floors (some
       jointly infeasible), zero and infinite caps, zero capacities and
       demands with no usage. *)
    tc "rate bits over a fixed seeded case set are pinned" (fun () ->
        let state = ref 0x2545F491 in
        let next bound =
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
          !state mod bound
        in
        let unit_float () = float_of_int (next 1_000_000) /. 1e6 in
        let digest = ref Ihnet_record.Trace.fnv_basis and solved = ref 0 in
        for _ = 1 to 2000 do
          let nr = 1 + next 8 in
          let capacities =
            Array.init nr (fun _ -> if next 8 = 0 then 0.0 else 1.0 +. (200.0 *. unit_float ()))
          in
          (* half the cases hold no floor at all *)
          let floors = next 2 = 0 in
          let demands =
            Array.init (next 14) (fun _ ->
                let usage =
                  List.sort_uniq
                    (fun (a, _) (b, _) -> compare a b)
                    (List.init (next 4) (fun _ -> (next nr, 1.0 +. (0.5 *. unit_float ()))))
                in
                fs_demand
                  ~weight:(0.25 +. (4.0 *. unit_float ()))
                  ~floor:(if floors && next 2 = 0 then 40.0 *. unit_float () else 0.0)
                  ~cap:
                    (match next 8 with
                    | 0 -> 0.0
                    | 1 | 2 | 3 -> infinity
                    | _ -> 90.0 *. unit_float ())
                  usage)
          in
          Array.iter
            (fun r ->
              incr solved;
              digest := Ihnet_record.Trace.fnv_float !digest r)
            (Fairshare.allocate ~capacities demands)
        done;
        Alcotest.(check int) "rates solved" 12497 !solved;
        Alcotest.(check string) "rate digest" "f9e148327e4b4adf" (Printf.sprintf "%016Lx" !digest));
  ]

(* Feasibility property: no resource over capacity, floors/caps respected. *)
let fairshare_properties =
  let gen =
    QCheck.make
      ~print:(fun _ -> "fairshare scenario")
      QCheck.Gen.(
        let* nres = int_range 1 5 in
        let* caps = array_size (return nres) (float_range 10.0 1000.0) in
        let* nflows = int_range 1 8 in
        let* flows =
          list_size (return nflows)
            (let* w = float_range 0.5 4.0 in
             let* floor = float_range 0.0 5.0 in
             let* cap_extra = float_range 0.0 500.0 in
             let* nuse = int_range 1 nres in
             let* res_ids = list_size (return nuse) (int_range 0 (nres - 1)) in
             let* coeffs = list_size (return nuse) (float_range 1.0 2.0) in
             let usage =
               List.sort_uniq (fun (a, _) (b, _) -> compare a b) (List.combine res_ids coeffs)
             in
             return (w, floor, floor +. cap_extra, usage))
        in
        return (caps, flows))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"allocation is feasible and bounded" ~count:300 gen
         (fun (caps, flows) ->
           let demands =
             Array.of_list
               (List.map
                  (fun (weight, floor, cap, usage) -> fs_demand ~weight ~floor ~cap usage)
                  flows)
           in
           let rates = Fairshare.allocate ~capacities:caps demands in
           let nres = Array.length caps in
           let load = Array.make nres 0.0 in
           Array.iteri
             (fun i (d : Fairshare.demand) ->
               Array.iteri (fun j r -> load.(r) <- load.(r) +. (rates.(i) *. d.coeff.(j))) d.res)
             demands;
           let feasible = Array.for_all2 (fun l c -> l <= c +. (1e-6 *. c) +. 1e-6) load caps in
           let capped =
             Array.for_all2 (fun r (d : Fairshare.demand) -> r <= d.cap +. 1e-6) rates demands
           in
           let nonneg = Array.for_all (fun r -> r >= -1e-9) rates in
           feasible && capped && nonneg));
  ]

(* {1 Latency model} *)

let latency_tests =
  [
    tc "zero load means base latency" (fun () ->
        check_close "base" 100.0 (Latency.hop_latency ~base:100.0 ~utilization:0.0 ()));
    tc "latency grows with utilization" (fun () ->
        let l50 = Latency.hop_latency ~base:100.0 ~utilization:0.5 () in
        let l90 = Latency.hop_latency ~base:100.0 ~utilization:0.9 () in
        Alcotest.(check bool) "monotone" true (l90 > l50 && l50 > 100.0));
    tc "inflation is capped" (fun () ->
        let l = Latency.hop_latency ~base:100.0 ~utilization:1.0 () in
        Alcotest.(check bool) "capped" true (l <= 100.0 *. Latency.max_inflation +. 1e-6));
    tc "fault extra applies before inflation" (fun () ->
        check_close "idle degraded" 600.0
          (Latency.hop_latency ~base:100.0 ~utilization:0.0 ~extra:500.0 ()));
    tc "serialization" (fun () ->
        check_close "1KB at 1GB/s = 1us" 1000.0
          (Latency.serialization ~bytes:1000.0 ~rate:1e9);
        check_close "infinite rate" 0.0 (Latency.serialization ~bytes:1e6 ~rate:infinity));
    tc "serialization at zero rate is stalled, not infinite" (fun () ->
        (* regression: bytes /. 0.0 used to return infinity, which then
           poisoned every sum it entered *)
        check_close "zero rate" Latency.stalled (Latency.serialization ~bytes:1000.0 ~rate:0.0);
        check_close "negative rate" Latency.stalled
          (Latency.serialization ~bytes:1000.0 ~rate:(-1.0));
        check_close "nan rate" Latency.stalled (Latency.serialization ~bytes:1000.0 ~rate:nan);
        Alcotest.(check bool) "finite" true
          (Float.is_finite (Latency.serialization ~bytes:1e30 ~rate:1e-30)));
  ]

(* {1 IOMMU model} *)

let iommu_tests =
  [
    tc "fits: no misses" (fun () ->
        check_close "0" 0.0 (Iommu.miss_rate ~entries:64 ~working_set_pages:64));
    tc "overflow raises miss rate" (fun () ->
        let m = Iommu.miss_rate ~entries:64 ~working_set_pages:256 in
        check_close "0.75" 0.75 m);
    tc "translation latency grows with working set" (fun () ->
        let iommu =
          T.Hostconfig.Iommu_on { iotlb_entries = 64; hit_latency = 10.0; miss_penalty = 250.0 }
        in
        let small = Iommu.expected_translation_latency iommu ~working_set_pages:32 in
        let large = Iommu.expected_translation_latency iommu ~working_set_pages:1024 in
        check_close "hit only" 10.0 small;
        Alcotest.(check bool) "more" true (large > 100.0));
    tc "off costs nothing" (fun () ->
        check_close "0" 0.0
          (Iommu.expected_translation_latency T.Hostconfig.Iommu_off ~working_set_pages:4096);
        check_close "1.0" 1.0
          (Iommu.bandwidth_overhead_factor T.Hostconfig.Iommu_off ~working_set_pages:4096
             ~payload_bytes:64));
  ]

(* {1 DDIO cache model} *)

let cache_tests =
  let ddio_on =
    T.Hostconfig.Ddio_on { llc_ways = 11; io_ways = 2; way_size = U.mib 1.5 }
  in
  [
    tc "slow writer fits in the IO ways" (fun () ->
        let c = Cache.create ddio_on in
        (* 3 MiB of IO ways, 50us reuse: fits up to ~63 GB/s *)
        check_close "hit" 1.0 (Cache.hit_rate c ~write_rate:10e9));
    tc "fast writers thrash" (fun () ->
        let c = Cache.create ddio_on in
        let h = Cache.hit_rate c ~write_rate:100e9 in
        Alcotest.(check bool) "partial" true (h < 0.9 && h > 0.1));
    tc "spill doubles missed bytes when on" (fun () ->
        let c = Cache.create ddio_on in
        let w = 100e9 in
        let h = Cache.hit_rate c ~write_rate:w in
        check_close ~eps:1.0 "spill" ((1.0 -. h) *. w *. 2.0) (Cache.spill_rate c ~write_rate:w));
    tc "ddio off sends everything to memory once" (fun () ->
        let c = Cache.create T.Hostconfig.Ddio_off in
        check_close "h=0" 0.0 (Cache.hit_rate c ~write_rate:1e9);
        check_close "1x" 1e9 (Cache.spill_rate c ~write_rate:1e9));
    tc "hit rate decreases with write rate" (fun () ->
        let c = Cache.create ddio_on in
        let prev = ref 1.1 in
        List.iter
          (fun w ->
            let h = Cache.hit_rate c ~write_rate:w in
            Alcotest.(check bool) "monotone" true (h <= !prev);
            prev := h)
          [ 1e9; 10e9; 50e9; 100e9; 200e9 ]);
  ]

(* {1 Fabric integration} *)

let fabric_tests =
  [
    tc "single flow gets the bottleneck rate" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let fl = Fabric.start_flow fab ~tenant:1 ~path:p ~size:Flow.Unbounded () in
        (* bottleneck = DDR channel 25.6 GB/s (PCIe gen4 x16 ~31.5 raw,
           less protocol efficiency ~0.91 => ~28.6 goodput) *)
        Alcotest.(check bool) "close to channel rate" true
          (fl.Flow.rate > 24e9 && fl.Flow.rate <= 25.7e9);
        Fabric.stop_flow fab fl);
    tc "finite flow completes at the expected time" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let done_at = ref nan in
        let fl =
          Fabric.start_flow fab ~tenant:1 ~path:p
            ~size:(Flow.Bytes 25.6e9) (* one second at channel rate *)
            ~on_complete:(fun f -> done_at := f.Flow.completed_at)
            ()
        in
        let expected = 25.6e9 /. fl.Flow.rate *. 1e9 in
        Sim.run sim;
        Alcotest.(check bool) "completed" true (fl.Flow.state = Flow.Completed);
        check_close ~eps:1e3 "time" expected !done_at);
    tc "two flows share a bottleneck link evenly" (fun () ->
        let topo = T.Builder.two_socket_server () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        (* both flows traverse the switch upstream link rp0.0-pciesw0 *)
        let p1 = T.Routing.route topo "nic0" "dimm0.0.0" in
        let p2 = T.Routing.route topo "gpu0" "dimm0.0.1" in
        let f1 = Fabric.start_flow fab ~tenant:1 ~path:p1 ~size:Flow.Unbounded () in
        let f2 = Fabric.start_flow fab ~tenant:2 ~path:p2 ~size:Flow.Unbounded () in
        check_close ~eps:1e6 "even" f1.Flow.rate f2.Flow.rate;
        Alcotest.(check bool) "shared upstream" true
          (f1.Flow.rate +. f2.Flow.rate < 32e9));
    tc "rate-capped flow leaves capacity to others" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let f1 = Fabric.start_flow fab ~tenant:1 ~cap:(U.gbytes_per_s 1.0) ~path:p ~size:Flow.Unbounded () in
        let f2 = Fabric.start_flow fab ~tenant:2 ~path:p ~size:Flow.Unbounded () in
        check_close ~eps:1e6 "capped" 1e9 f1.Flow.rate;
        Alcotest.(check bool) "rest" true (f2.Flow.rate > 20e9));
    tc "stopping a flow frees bandwidth immediately" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let f1 = Fabric.start_flow fab ~tenant:1 ~path:p ~size:Flow.Unbounded () in
        let f2 = Fabric.start_flow fab ~tenant:2 ~path:p ~size:Flow.Unbounded () in
        let before = f2.Flow.rate in
        Fabric.stop_flow fab f1;
        Alcotest.(check bool) "doubled" true (f2.Flow.rate > before *. 1.8));
    tc "byte counters accumulate wire bytes per tenant" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let fl = Fabric.start_flow fab ~tenant:7 ~path:p ~size:Flow.Unbounded () in
        Sim.run ~until:(U.ms 1.0) sim;
        let hop = List.hd p.T.Path.hops in
        let link = hop.T.Path.link in
        let total = Fabric.link_bytes fab link.T.Link.id hop.T.Path.dir in
        let t7 = Fabric.tenant_link_bytes fab link.T.Link.id hop.T.Path.dir ~tenant:7 in
        let expected_goodput = fl.Flow.rate *. 1e-3 in
        Alcotest.(check bool) "wire >= goodput" true (total >= expected_goodput *. 0.999);
        check_close ~eps:(total /. 1e6) "tenant attribution" total t7);
    tc "utilization reflects allocation" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        ignore (Fabric.start_flow fab ~tenant:1 ~path:p ~size:Flow.Unbounded ());
        (* the DDR channel (last hop) should be fully utilized *)
        let hop = List.nth p.T.Path.hops (List.length p.T.Path.hops - 1) in
        let u = Fabric.link_utilization fab hop.T.Path.link.T.Link.id hop.T.Path.dir in
        Alcotest.(check bool) "saturated" true (u > 0.99));
    tc "path latency rises under load" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let idle = Fabric.path_latency fab p in
        ignore (Fabric.start_flow fab ~tenant:1 ~path:p ~size:Flow.Unbounded ());
        let busy = Fabric.path_latency fab p in
        Alcotest.(check bool) "rises" true (busy > idle *. 1.2));
    tc "fault degrades capacity silently" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let fl = Fabric.start_flow fab ~tenant:1 ~path:p ~size:Flow.Unbounded () in
        let healthy_rate = fl.Flow.rate in
        let hop = List.hd p.T.Path.hops in
        Fabric.inject_fault fab hop.T.Path.link.T.Link.id
          (Fault.degrade ~capacity_factor:0.25 ());
        Alcotest.(check bool) "rate dropped" true (fl.Flow.rate < healthy_rate *. 0.5);
        Fabric.clear_fault fab hop.T.Path.link.T.Link.id;
        check_close ~eps:1e6 "recovered" healthy_rate fl.Flow.rate);
    tc "down link starves flows and loses probes" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let fl = Fabric.start_flow fab ~tenant:1 ~path:p ~size:Flow.Unbounded () in
        let hop = List.hd p.T.Path.hops in
        Fabric.inject_fault fab hop.T.Path.link.T.Link.id Fault.down;
        check_close "zero" 0.0 fl.Flow.rate;
        check_close "lost" 1.0 (Fabric.probe_loss_prob fab p));
    tc "llc_target flows spill to memory when thrashing" (fun () ->
        let topo = T.Builder.two_socket_server () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        (* nic0 (behind the switch) and nic1 (direct root port): their
           combined DDIO write rate exceeds the I/O ways' capacity *)
        let p_nic0 = T.Routing.route topo "nic0" "socket0" in
        let p_nic1 = T.Routing.route topo "nic1" "socket0" in
        ignore (Fabric.start_flow fab ~tenant:1 ~llc_target:true ~path:p_nic0 ~size:Flow.Unbounded ());
        let h1 = Fabric.ddio_hit_rate fab ~socket:0 in
        ignore (Fabric.start_flow fab ~tenant:2 ~llc_target:true ~path:p_nic1 ~size:Flow.Unbounded ());
        let h2 = Fabric.ddio_hit_rate fab ~socket:0 in
        Alcotest.(check bool) "thrash worsens" true (h2 < h1);
        Alcotest.(check bool) "spill grows" true (Fabric.ddio_spill_rate fab ~socket:0 > 0.0));
    tc "ddio off: all llc traffic goes to memory once" (fun () ->
        let config = { T.Hostconfig.default with T.Hostconfig.ddio = T.Hostconfig.Ddio_off } in
        let topo = T.Builder.two_socket_server ~config () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "socket0" in
        let fl = Fabric.start_flow fab ~tenant:1 ~llc_target:true ~path:p ~size:Flow.Unbounded () in
        check_close "no hits" 0.0 (Fabric.ddio_hit_rate fab ~socket:0);
        let spill = Fabric.ddio_spill_rate fab ~socket:0 in
        Alcotest.(check bool) "about 1x rate" true
          (spill > fl.Flow.rate *. 0.45 && spill < fl.Flow.rate *. 1.1));
    tc "small payloads waste PCIe capacity on headers" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let big = Fabric.start_flow fab ~tenant:1 ~payload_bytes:256 ~path:p ~size:Flow.Unbounded () in
        let big_rate = big.Flow.rate in
        Fabric.stop_flow fab big;
        let small = Fabric.start_flow fab ~tenant:1 ~payload_bytes:64 ~path:p ~size:Flow.Unbounded () in
        (* both bottlenecked by the DDR channel here, so compare PCIe wire load *)
        let hop = List.hd p.T.Path.hops in
        let wire_u = Fabric.link_utilization fab hop.T.Path.link.T.Link.id hop.T.Path.dir in
        Alcotest.(check bool) "small payload = more wire per byte" true
          (small.Flow.rate <= big_rate && wire_u > 0.0));
    tc "transfer_time estimates without committing" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let before = Fabric.flow_count fab in
        (match Fabric.transfer_time fab ~path:p ~bytes:1e9 with
        | Some t -> Alcotest.(check bool) "sane" true (t > 0.0 && t < U.s 1.0)
        | None -> Alcotest.fail "expected a rate");
        Alcotest.(check int) "no side effect" before (Fabric.flow_count fab));
    tc "weights shift shares between tenants" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let f1 = Fabric.start_flow fab ~tenant:1 ~weight:3.0 ~path:p ~size:Flow.Unbounded () in
        let f2 = Fabric.start_flow fab ~tenant:2 ~weight:1.0 ~path:p ~size:Flow.Unbounded () in
        Alcotest.(check bool) "3x" true
          (f1.Flow.rate > f2.Flow.rate *. 2.5 && f1.Flow.rate < f2.Flow.rate *. 3.5));
    tc "set_flow_limits reallocates immediately" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let f1 = Fabric.start_flow fab ~tenant:1 ~path:p ~size:Flow.Unbounded () in
        Fabric.set_flow_limits fab f1 ~cap:1e9 ();
        check_close ~eps:1e3 "capped now" 1e9 f1.Flow.rate);
    tc "completion callbacks see a consistent fabric" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let chained = ref false in
        let _ =
          Fabric.start_flow fab ~tenant:1 ~path:p ~size:(Flow.Bytes 1e6)
            ~on_complete:(fun _ ->
              chained := true;
              ignore (Fabric.start_flow fab ~tenant:1 ~path:p ~size:(Flow.Bytes 1e6) ()))
            ()
        in
        Sim.run sim;
        Alcotest.(check bool) "chained" true !chained;
        Alcotest.(check int) "drained" 0 (Fabric.flow_count fab));
    tc "the DDIO spill fixed point is stable across reallocations" (fun () ->
        (* thrashing configuration: two LLC writers; rates must not
           oscillate between consecutive reallocations *)
        let topo = T.Builder.two_socket_server () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p0 = T.Routing.route topo "nic0" "socket0" in
        let p1 = T.Routing.route topo "nic1" "socket0" in
        let f0 = Fabric.start_flow fab ~tenant:1 ~llc_target:true ~path:p0 ~size:Flow.Unbounded () in
        let f1 = Fabric.start_flow fab ~tenant:2 ~llc_target:true ~path:p1 ~size:Flow.Unbounded () in
        let r0 = f0.Flow.rate and r1 = f1.Flow.rate in
        let h = Fabric.ddio_hit_rate fab ~socket:0 in
        (* a no-op limit change forces a fresh reallocation *)
        Fabric.set_flow_limits fab f0 ~weight:1.0 ();
        Fabric.set_flow_limits fab f0 ~weight:1.0 ();
        Alcotest.(check bool) "rates stable" true
          (Float.abs (f0.Flow.rate -. r0) < 0.05 *. r0
          && Float.abs (f1.Flow.rate -. r1) < 0.05 *. r1);
        Alcotest.(check bool) "hit stable" true
          (Float.abs (Fabric.ddio_hit_rate fab ~socket:0 -. h) < 0.05));
    tc "probe class traffic is accounted separately" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        ignore
          (Fabric.start_flow fab ~tenant:0 ~cls:Flow.Probe ~cap:1e8 ~path:p ~size:Flow.Unbounded ());
        Sim.run ~until:(U.ms 1.0) sim;
        let hop = List.hd p.T.Path.hops in
        let probe_bytes =
          Fabric.cls_link_bytes fab hop.T.Path.link.T.Link.id hop.T.Path.dir ~cls:Flow.Probe
        in
        let payload_bytes =
          Fabric.cls_link_bytes fab hop.T.Path.link.T.Link.id hop.T.Path.dir ~cls:Flow.Payload
        in
        Alcotest.(check bool) "probe counted" true (probe_bytes > 0.0);
        check_close "no payload" 0.0 payload_bytes);
  ]

(* {1 Reallocation epochs: input checks, reachability, GC} *)

(* The DGX host-churn shape: flows on the eight gpuN -> nic((N+3) mod 8)
   paths, which cross switches and sockets and so form one contention
   component. *)
let coupled_paths topo =
  Array.init 8 (fun n ->
      T.Routing.route topo (Printf.sprintf "gpu%d" n) (Printf.sprintf "nic%d" ((n + 3) mod 8)))

let epoch_tests =
  [
    tc "start_flow and set_flow_limits refuse NaN bounds before any effect" (fun () ->
        let topo = T.Builder.minimal () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "nic0" "dimm0.0.0" in
        let f = Fabric.start_flow fab ~tenant:1 ~path:p ~size:Flow.Unbounded () in
        let rate = f.Flow.rate in
        let refused field start =
          let n = Fabric.flow_count fab and epochs = Fabric.reallocations fab in
          (match start () with
          | () -> Alcotest.failf "%s: NaN accepted" field
          | exception Invalid_argument m ->
            let named =
              let k = String.length field in
              let rec at i = i + k <= String.length m && (String.sub m i k = field || at (i + 1)) in
              at 0
            in
            if not named then Alcotest.failf "%s: message does not name it: %s" field m);
          Alcotest.(check int) (field ^ ": flow count") n (Fabric.flow_count fab);
          Alcotest.(check int) (field ^ ": reallocations") epochs (Fabric.reallocations fab)
        in
        let start ?weight ?floor ?cap ?demand () =
          ignore (Fabric.start_flow fab ~tenant:2 ?weight ?floor ?cap ?demand ~path:p ~size:Flow.Unbounded ())
        in
        refused "weight" (start ~weight:Float.nan);
        refused "floor" (start ~floor:Float.nan);
        refused "cap" (start ~cap:Float.nan);
        refused "demand" (start ~demand:Float.nan);
        refused "demand" (start ~demand:(-1.0));
        (* a valid weight beside a NaN floor is not stored either *)
        refused "floor" (fun () -> Fabric.set_flow_limits fab f ~weight:3.0 ~floor:Float.nan ());
        refused "cap" (fun () -> Fabric.set_flow_limits fab f ~cap:Float.nan ());
        refused "weight" (fun () -> Fabric.set_flow_limits fab f ~weight:Float.nan ());
        check_close "weight kept" 1.0 f.Flow.weight;
        check_close "floor kept" 0.0 f.Flow.floor;
        Alcotest.(check bool) "cap kept" true (f.Flow.cap = infinity);
        (* the fabric still solves: a valid start is admitted beside [f] *)
        let g = Fabric.start_flow fab ~tenant:2 ~path:p ~size:Flow.Unbounded () in
        Alcotest.(check int) "two flows" 2 (Fabric.flow_count fab);
        check_close ~eps:1e6 "even split" f.Flow.rate g.Flow.rate;
        Alcotest.(check bool) "shared" true (f.Flow.rate < rate));
    (* The fabric's BFS scratch and slot table must let go of a flow
       once it leaves: a grow-only scratch that only resets its length
       keeps every entry a larger component once held. The flows are
       held here only weakly. *)
    tc "stopped and completed flows are unreachable from the fabric" (fun () ->
        let topo = T.Builder.dgx_like () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let p = T.Routing.route topo "gpu0" "nic3" in
        let n = 200 in
        let started size =
          let w = Weak.create n in
          Fabric.batch fab (fun () ->
              for i = 0 to n - 1 do
                Weak.set w i (Some (Fabric.start_flow fab ~tenant:1 ~path:p ~size:(size i) ()))
              done);
          w
        in
        let alive w =
          Gc.full_major ();
          Gc.full_major ();
          let k = ref 0 in
          for i = 0 to n - 1 do
            if Weak.check w i then incr k
          done;
          !k
        in
        let stopped = started (fun _ -> Flow.Unbounded) in
        for i = 0 to n - 1 do
          Option.iter (Fabric.stop_flow fab) (Weak.get stopped i)
        done;
        Alcotest.(check int) "stopped flows alive" 0 (alive stopped);
        (* distinct sizes, so each completion reallocates the rest *)
        let completed = started (fun i -> Flow.Bytes (1e6 *. float_of_int (i + 1))) in
        Sim.run sim;
        Alcotest.(check int) "flows left" 0 (Fabric.flow_count fab);
        Alcotest.(check int) "completed flows alive" 0 (alive completed));
    (* OCaml 5's [Array.make] runs a minor collection before making an
       array of more than 256 words around a young seed, and every
       component array of a 1000-flow epoch is that big. Right after a
       collection, one start allocates far less than the default minor
       heap, so any collection it runs is a forced one. *)
    tc "a start_flow on a loaded fabric forces no minor collection" (fun () ->
        let topo = T.Builder.dgx_like () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        let paths = coupled_paths topo in
        Fabric.batch fab (fun () ->
            for i = 0 to 999 do
              ignore
                (Fabric.start_flow fab ~tenant:(1 + (i mod 16))
                   ~weight:(1.0 +. float_of_int (i mod 3))
                   ~path:paths.(i mod 8) ~size:Flow.Unbounded ())
            done);
        Gc.minor ();
        let minors () = (Gc.quick_stat ()).Gc.minor_collections in
        let before = minors () in
        ignore (Fabric.start_flow fab ~tenant:1 ~path:paths.(0) ~size:Flow.Unbounded ());
        Alcotest.(check int) "minor collections" 0 (minors () - before));
    (* A batch's epoch is seeded by what its commands touched, as a
       lone command's is: a component it did not reach is not looked
       up, solved or recommitted, so its flows keep their completion
       keys. *)
    tc "a batch reallocates only the components its commands touched" (fun () ->
        let topo = T.Builder.two_socket_server () in
        let sim = Sim.create () in
        let fab = Fabric.create sim topo in
        (* two link-disjoint paths: one contention component each *)
        let pa = T.Routing.route topo "gpu0" "nic0" and pb = T.Routing.route topo "ssd1" "gpu1" in
        let a = Array.init 4 (fun _ -> Fabric.start_flow fab ~tenant:1 ~path:pa ~size:Flow.Unbounded ()) in
        let b =
          List.init 4 (fun i ->
              Fabric.start_flow fab ~tenant:2 ~path:pb ~size:(Flow.Bytes (1e9 *. float_of_int (i + 1))) ())
        in
        (* let time pass, so that re-keying a completion would move it *)
        Sim.run ~until:1000.0 sim;
        let b_ids = List.map (fun (f : Flow.t) -> f.Flow.id) b in
        let b_entries () =
          List.filter
            (fun (_, id, _, live) -> live && List.mem id b_ids)
            (Fabric.scan_completion_heap fab)
        in
        let b_rates () = List.map (fun (f : Flow.t) -> Int64.bits_of_float f.Flow.rate) b in
        let entries0 = b_entries () and rates0 = b_rates () in
        Alcotest.(check int) "path B holds live completion entries" 4 (List.length entries0);
        let lookups () = Fabric.memo_hits fab + Fabric.memo_misses fab in
        let l0 = lookups () and epochs0 = Fabric.reallocations fab in
        Fabric.batch fab (fun () ->
            Fabric.stop_flow fab a.(0);
            ignore (Fabric.start_flow fab ~tenant:1 ~path:pa ~size:Flow.Unbounded ()));
        Alcotest.(check int) "one epoch" (epochs0 + 1) (Fabric.reallocations fab);
        Alcotest.(check int) "memo lookups: path A's component only" 1 (lookups () - l0);
        Alcotest.(check bool) "path B's completion entries unchanged" true (entries0 = b_entries ());
        Alcotest.(check (list int64)) "path B's rates unchanged" rates0 (b_rates ()));
  ]

(* Conservation property: random flow sets never oversubscribe links. *)
let fabric_properties =
  let gen =
    QCheck.make
      ~print:(fun specs ->
        String.concat ";"
          (List.map (fun (a, b, cap) -> Printf.sprintf "%d->%d@%.0f" a b cap) specs))
      QCheck.Gen.(
        list_size (int_range 1 10)
          (let* a = int_range 0 20 in
           let* b = int_range 0 20 in
           let* cap = float_range 1e8 1e11 in
           return (a, b, cap)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random flows never oversubscribe any link" ~count:100 gen
         (fun specs ->
           let topo = T.Builder.two_socket_server () in
           let sim = Sim.create () in
           let fab = Fabric.create sim topo in
           let n = T.Topology.device_count topo in
           List.iter
             (fun (a, b, cap) ->
               let a = a mod n and b = b mod n in
               if a <> b then
                 match T.Routing.shortest_path topo a b with
                 | Some p when p.T.Path.hops <> [] ->
                   ignore (Fabric.start_flow fab ~tenant:1 ~cap ~path:p ~size:Flow.Unbounded ())
                 | Some _ | None -> ())
             specs;
           List.for_all
             (fun (l : T.Link.t) ->
               List.for_all
                 (fun dir ->
                   let rate = Fabric.link_rate fab l.T.Link.id dir in
                   let cap = Fabric.effective_capacity fab l.T.Link.id dir in
                   rate <= cap *. 1.001 +. 1.0)
                 [ T.Link.Fwd; T.Link.Rev ])
             (T.Topology.links topo)));
  ]

(* {1 Always-on latency sketches} *)

let sketch_plane_tests =
  let mk enable =
    let topo = T.Builder.two_socket_server () in
    let sim = Sim.create () in
    let fab = Fabric.create sim topo in
    if enable then Fabric.enable_latency_sketches fab;
    fab
  in
  (* identical churn on each fabric: an unbounded background flow plus
     a stream of bounded requests whose completions hit the flow sketch *)
  let drive fab =
    let topo = Fabric.topology fab in
    let p = T.Routing.route topo "ext" "socket0" in
    ignore (Fabric.start_flow fab ~tenant:1 ~path:p ~size:Flow.Unbounded ());
    for i = 1 to 10 do
      ignore (Fabric.start_flow fab ~tenant:2 ~demand:1e9 ~path:p ~size:(Flow.Bytes 50_000.0) ());
      Sim.run ~until:(float_of_int i *. 100_000.0) (Fabric.sim fab)
    done;
    ( Fabric.reallocations fab,
      List.map (fun (f : Flow.t) -> Int64.bits_of_float f.Flow.rate) (Fabric.active_flows fab) )
  in
  [
    tc "dormant plane reads None" (fun () ->
        let fab = mk false in
        Alcotest.(check bool) "disabled" false (Fabric.latency_sketches_enabled fab);
        Alcotest.(check bool) "no flow sketch" true (Fabric.flow_latency_sketch fab = None);
        Alcotest.(check bool) "no link sketch" true
          (Fabric.link_latency_sketch fab 0 T.Link.Fwd = None));
    tc "enabled plane observes without steering" (fun () ->
        let bare = mk false and sketched = mk true in
        let sig0 = drive bare and sig1 = drive sketched in
        Alcotest.(check bool) "reallocations and rates bit-identical" true (sig0 = sig1);
        (match Fabric.flow_latency_sketch sketched with
        | Some sk ->
          Alcotest.(check bool) "completions observed" true (Ihnet_util.Sketch.count sk > 0)
        | None -> Alcotest.fail "flow sketch missing");
        let p = T.Routing.route (Fabric.topology sketched) "ext" "socket0" in
        let h = List.hd p.T.Path.hops in
        match Fabric.link_latency_sketch sketched h.T.Path.link.T.Link.id h.T.Path.dir with
        | Some sk -> Alcotest.(check bool) "epochs observed" true (Ihnet_util.Sketch.count sk > 0)
        | None -> Alcotest.fail "link sketch missing");
    tc "enable is idempotent" (fun () ->
        let fab = mk true in
        ignore (drive fab);
        let before =
          match Fabric.flow_latency_sketch fab with
          | Some sk -> Ihnet_util.Sketch.count sk
          | None -> Alcotest.fail "flow sketch missing"
        in
        Fabric.enable_latency_sketches fab;
        (match Fabric.flow_latency_sketch fab with
        | Some sk -> Alcotest.(check int) "samples kept" before (Ihnet_util.Sketch.count sk)
        | None -> Alcotest.fail "flow sketch lost");
        Alcotest.(check bool) "still enabled" true (Fabric.latency_sketches_enabled fab));
  ]

(* {1 Labels the trace codec and the CLIs print} *)

let label_tests =
  [
    tc "cls_of_label inverts cls_label for every class" (fun () ->
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Flow.cls_label c) true
              (Flow.cls_of_label (Flow.cls_label c) = Some c))
          [ Flow.Payload; Flow.Monitoring; Flow.Heartbeat; Flow.Probe; Flow.Induced ];
        Alcotest.(check bool) "an unknown label" true (Flow.cls_of_label "bogus" = None));
    tc "Fault.describe names what the fault changes" (fun () ->
        Alcotest.(check string) "degrade" "capacity x0.05, +1000 ns latency"
          (Fault.describe (Fault.degrade ~capacity_factor:0.05 ~extra_latency:1000.0 ()));
        Alcotest.(check string) "loss" "loss 10%"
          (Fault.describe { Fault.healthy with Fault.loss_prob = 0.1 });
        Alcotest.(check string) "healthy" "no-op" (Fault.describe Fault.healthy));
  ]

let suites =
  [
    ("engine.sim", sim_tests @ sim_skip_tests);
    ("engine.fairshare", fairshare_tests @ fairshare_properties);
    ("engine.latency", latency_tests);
    ("engine.iommu", iommu_tests);
    ("engine.cache", cache_tests);
    ("engine.fabric", fabric_tests @ fabric_properties);
    ("engine.epoch", epoch_tests);
    ("engine.sketches", sketch_plane_tests);
    ("engine.labels", label_tests);
  ]
