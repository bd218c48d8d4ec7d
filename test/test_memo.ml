(* Solver input validation and the fabric's component memo. Memo on
   and off must be BIT-identical — not merely close — because the
   fabric's determinism contract digests the output rates (MODEL.md
   §12–13). The solver's own differential property against the
   round-based oracle lives in test_properties.ml. *)

module E = Ihnet_engine

let bits_eq (a : float) (b : float) =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let d w f c u =
  {
    E.Fairshare.weight = w;
    floor = f;
    cap = c;
    res = Array.of_list (List.map fst u);
    coeff = Array.of_list (List.map snd u);
  }

(* Satellite: [validate] must raise [Invalid_argument] — a real
   raise, not [assert], so it survives [-noassert] builds. This test
   failed before the fix: the old asserts raised [Assert_failure]. *)
let test_validate_raises () =
  let caps = [| 100.0 |] in
  let bad_weight = [| d 0.0 0.0 infinity [ (0, 1.0) ] |] in
  let bad_floor = [| d 1.0 (-1.0) infinity [ (0, 1.0) ] |] in
  let bad_cap = [| d 1.0 0.0 (-2.0) [ (0, 1.0) ] |] in
  let bad_res = [| d 1.0 0.0 infinity [ (7, 1.0) ] |] in
  let bad_coef = [| d 1.0 0.0 infinity [ (0, 0.0) ] |] in
  let nan_weight = [| d Float.nan 0.0 infinity [ (0, 1.0) ] |] in
  let short_coeff = [| { (d 1.0 0.0 infinity [ (0, 1.0) ]) with E.Fairshare.coeff = [||] } |] in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | exception e ->
      Alcotest.failf "%s: expected Invalid_argument, got %s" name (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: expected Invalid_argument, got a result" name
  in
  List.iter
    (fun (name, dems) ->
      expect_invalid ("validate " ^ name) (fun () ->
          E.Fairshare.validate ~capacities:caps dems);
      expect_invalid ("allocate " ^ name) (fun () ->
          E.Fairshare.allocate ~capacities:caps dems))
    [
      ("weight=0", bad_weight);
      ("floor<0", bad_floor);
      ("cap<0", bad_cap);
      ("resource out of range", bad_res);
      ("coefficient=0", bad_coef);
      ("weight=nan", nan_weight);
      ("fewer coefficients than resources", short_coeff);
    ]

let unit_tests =
  [
    Alcotest.test_case "validate raises Invalid_argument (survives -noassert)" `Quick
      test_validate_raises;
  ]

(* {1 Fabric level: the component-result memo and its invalidation}

   Steady flow churn must hit the memo; anything that changes a
   component's inputs — a link fault (capacities), a limits update (a
   demand record), a host-config swap (the cache model) — must miss.
   The hit/miss counters are the observable. *)

module T = Ihnet_topology

(* A two-socket fabric carrying 24 background flows on gpu0->nic0,
   plus the path and a faultable mid-path link. *)
let loaded_fabric ?(memo = true) () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create ~memo sim topo in
  let p = T.Routing.route topo "gpu0" "nic0" in
  E.Fabric.batch fab (fun () ->
      for i = 1 to 24 do
        ignore
          (E.Fabric.start_flow fab ~tenant:(1 + (i mod 4))
             ~weight:(1.0 +. float_of_int (i mod 3))
             ~path:p ~size:E.Flow.Unbounded ())
      done);
  (fab, p)

let churn fab p =
  let f = E.Fabric.start_flow fab ~tenant:99 ~path:p ~size:E.Flow.Unbounded () in
  E.Fabric.stop_flow fab f

let test_fabric_steady_churn_hits () =
  let fab, p = loaded_fabric () in
  Alcotest.(check bool) "memo enabled" true (E.Fabric.memo_enabled fab);
  (* first lap populates the memo (both alternation values) *)
  churn fab p;
  let h0 = E.Fabric.memo_hits fab and m0 = E.Fabric.memo_misses fab in
  for _ = 1 to 5 do
    churn fab p
  done;
  Alcotest.(check int) "steady churn misses nothing" m0 (E.Fabric.memo_misses fab);
  Alcotest.(check bool) "steady churn hits the memo" true (E.Fabric.memo_hits fab >= h0 + 10)

let test_fabric_invalidation () =
  let fab, p = loaded_fabric () in
  churn fab p;
  churn fab p;
  let expect_miss label act =
    let m0 = E.Fabric.memo_misses fab in
    act ();
    if E.Fabric.memo_misses fab <= m0 then
      Alcotest.failf "%s did not invalidate the memo (misses stuck at %d)" label m0
  in
  (* capacities changed -> the cached caps row no longer matches *)
  let mid = List.nth p.T.Path.hops (List.length p.T.Path.hops / 2) in
  (* The fabric was loaded in one batch, which seeds only the loaded
     direction of [mid]; its idle reverse direction has no memo yet. A
     no-op clear stores one, so both directions have a pre-fault memo
     for [clear_fault] to replay. *)
  E.Fabric.clear_fault fab mid.T.Path.link.T.Link.id;
  expect_miss "inject_fault" (fun () ->
      E.Fabric.inject_fault fab mid.T.Path.link.T.Link.id (E.Fault.degrade ~capacity_factor:0.5 ()));
  (* clearing restores the pre-fault capacities, which the bucket still
     holds — the memo is keyed by values, not invalidated by events, so
     returning to a previously-seen state is a legitimate hit *)
  let h0 = E.Fabric.memo_hits fab and m1 = E.Fabric.memo_misses fab in
  E.Fabric.clear_fault fab mid.T.Path.link.T.Link.id;
  Alcotest.(check int) "clear_fault replays the pre-fault memo" m1 (E.Fabric.memo_misses fab);
  Alcotest.(check bool) "clear_fault hits" true (E.Fabric.memo_hits fab > h0);
  (* a never-seen degradation level must miss again *)
  expect_miss "inject_fault (new level)" (fun () ->
      E.Fabric.inject_fault fab mid.T.Path.link.T.Link.id (E.Fault.degrade ~capacity_factor:0.7 ()));
  E.Fabric.clear_fault fab mid.T.Path.link.T.Link.id;
  (* a demand record changed -> the dems row no longer matches *)
  (match E.Fabric.active_flows fab with
  | f :: _ ->
    expect_miss "set_flow_limits" (fun () ->
        E.Fabric.set_flow_limits fab f ~weight:9.5 ())
  | [] -> Alcotest.fail "no active flows");
  (* config swap resets the whole cache generation *)
  expect_miss "set_config" (fun () ->
      E.Fabric.set_config fab
        { T.Hostconfig.default with T.Hostconfig.ddio = T.Hostconfig.Ddio_off });
  (* and after each upset, steady churn re-converges to pure hits *)
  churn fab p;
  let m0 = E.Fabric.memo_misses fab in
  churn fab p;
  Alcotest.(check int) "re-converged to hits" m0 (E.Fabric.memo_misses fab)

let test_fabric_cold_counters_stay_zero () =
  let fab, p = loaded_fabric ~memo:false () in
  Alcotest.(check bool) "memo disabled" false (E.Fabric.memo_enabled fab);
  for _ = 1 to 3 do
    churn fab p
  done;
  Alcotest.(check int) "no hits" 0 (E.Fabric.memo_hits fab);
  Alcotest.(check int) "no misses" 0 (E.Fabric.memo_misses fab)

(* Same seed, same scenario, memo on vs off: every flow rate must be
   bit-identical (the memo may only change how fast rates are
   computed, never their bits). *)
let test_fabric_memo_on_off_rates_bitwise () =
  let run memo =
    let fab, p = loaded_fabric ~memo () in
    churn fab p;
    let mid = List.nth p.T.Path.hops (List.length p.T.Path.hops / 2) in
    E.Fabric.inject_fault fab mid.T.Path.link.T.Link.id (E.Fault.degrade ~capacity_factor:0.25 ());
    churn fab p;
    E.Fabric.clear_fault fab mid.T.Path.link.T.Link.id;
    churn fab p;
    E.Fabric.active_flows fab
    |> List.map (fun f -> (f.E.Flow.id, f.E.Flow.rate))
    |> List.sort compare
  in
  let w = run true and c = run false in
  Alcotest.(check int) "same flow count" (List.length c) (List.length w);
  List.iter2
    (fun (wi, wr) (ci, cr) ->
      Alcotest.(check int) "same flow id" ci wi;
      if not (bits_eq wr cr) then
        Alcotest.failf "flow %d: memo-on rate %h <> memo-off rate %h" wi wr cr)
    w c

(* A miss refills the arrays of the memo it evicts, so a miss-only
   churn on a 1000-flow component allocates directly on the major heap
   only the component's entry array: one word per flow. Words counted
   as allocated on the major heap but not promoted from the minor heap
   were allocated there directly. Snapshotting each miss into fresh
   arrays cost about five words per flow. *)
let test_fabric_miss_reuses_evicted_arrays () =
  let topo = T.Builder.dgx_like () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  let paths =
    Array.init 8 (fun n ->
        T.Routing.route topo (Printf.sprintf "gpu%d" n) (Printf.sprintf "nic%d" ((n + 3) mod 8)))
  in
  let rng = Ihnet_util.Rng.create 7 in
  let n = 1000 and started = ref 0 in
  (* every flow's weight is its own, so no component value recurs and
     every epoch misses *)
  let start () =
    incr started;
    E.Fabric.start_flow fab ~tenant:1
      ~weight:(1.0 +. (float_of_int !started /. 1e4))
      ~path:(Ihnet_util.Rng.pick rng paths) ~size:E.Flow.Unbounded ()
  in
  let live = ref [||] in
  E.Fabric.batch fab (fun () -> live := Array.init n (fun _ -> start ()));
  let live = !live and last = ref (-1) in
  let churn () =
    (* never the flow just started: stopping it would return the
       component to the value before its start, a hit *)
    let i = Ihnet_util.Rng.int rng n in
    let i = if i = !last then (i + 1) mod n else i in
    E.Fabric.stop_flow fab live.(i);
    live.(i) <- start ();
    last := i
  in
  for _ = 1 to 20 do
    churn ()
  done;
  let h0 = E.Fabric.memo_hits fab and m0 = E.Fabric.memo_misses fab in
  let r0 = E.Fabric.reallocations fab in
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to 200 do
    churn ()
  done;
  let _, promoted1, major1 = Gc.counters () in
  let epochs = E.Fabric.reallocations fab - r0 in
  Alcotest.(check int) "epochs" 400 epochs;
  Alcotest.(check int) "every epoch misses" 400 (E.Fabric.memo_misses fab - m0);
  Alcotest.(check int) "no epoch hits" 0 (E.Fabric.memo_hits fab - h0);
  let per_flow =
    (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int (epochs * n)
  in
  if per_flow > 1.1 then
    Alcotest.failf "%.2f words per flow per reallocation directly on the major heap (> 1.1)"
      per_flow

let fabric_tests =
  [
    Alcotest.test_case "steady churn is answered from the memo" `Quick
      test_fabric_steady_churn_hits;
    Alcotest.test_case "faults, limit updates and config swaps invalidate" `Quick
      test_fabric_invalidation;
    Alcotest.test_case "a disabled memo keeps its counters at zero" `Quick
      test_fabric_cold_counters_stay_zero;
    Alcotest.test_case "memo on and off produce bit-identical rates" `Quick
      test_fabric_memo_on_off_rates_bitwise;
    Alcotest.test_case "a miss refills the arrays of the memo it evicts" `Quick
      test_fabric_miss_reuses_evicted_arrays;
  ]

let suites =
  [ ("memo.units", unit_tests); ("memo.fabric", fabric_tests) ]
