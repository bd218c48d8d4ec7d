(* Out-of-band scanport tests: codec round-trip, diff semantics,
   freeze/single-step, and the digest-only read against capture. *)

module U = Ihnet_util
module T = Ihnet_topology
module E = Ihnet_engine
module Rec = Ihnet_record

let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 30) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* {1 A deterministic loaded fabric driven from a command script} *)

let make_fabric () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create ~seed:42 sim topo in
  (sim, fab)

let endpoints =
  [| ("gpu0", "nic0"); ("ext", "gpu0"); ("nic0", "dimm0.0.0"); ("gpu0", "ssd0"); ("ext", "gpu1") |]

(* Interpret a list of small ints as a command script against the
   fabric: starts (bounded, unbounded, and unbounded LLC-targeted DMA
   writes from nic0 or nic1 into socket0, E5's thrashing pair, which
   drive the DDIO spill loop past its first iteration), stops, fault
   inject/clear and time advances. Everything derives from the codes,
   so the same script replays identically on every fabric
   configuration. *)
let apply_ops (sim, fab) ops =
  let unbounded = ref [] in
  let nlinks = List.length (T.Topology.links (E.Fabric.topology fab)) in
  List.iter
    (fun code ->
      let code = abs code in
      let a, b = endpoints.(code / 8 mod Array.length endpoints) in
      match code mod 8 with
      | 0 | 1 ->
        let f =
          E.Fabric.start_flow fab ~tenant:(1 + (code mod 5))
            ~weight:(1.0 +. float_of_int (code mod 3))
            ~path:(T.Routing.route (E.Fabric.topology fab) a b) ~size:E.Flow.Unbounded ()
        in
        unbounded := f :: !unbounded
      | 2 ->
        ignore
          (E.Fabric.start_flow fab ~tenant:(1 + (code mod 5))
             ~path:(T.Routing.route (E.Fabric.topology fab) a b)
             ~size:(E.Flow.Bytes (1e5 +. (1e4 *. float_of_int (code mod 11))))
             ())
      | 3 -> (
        match !unbounded with
        | f :: rest ->
          E.Fabric.stop_flow fab f;
          unbounded := rest
        | [] -> ())
      | 4 ->
        E.Fabric.inject_fault fab (code mod nlinks)
          { E.Fault.capacity_factor = 0.5; extra_latency = 500.0; loss_prob = 0.0 }
      | 5 -> E.Fabric.clear_fault fab (code mod nlinks)
      | 7 ->
        let nic = if code / 8 mod 2 = 0 then "nic0" else "nic1" in
        let f =
          E.Fabric.start_flow fab ~tenant:(1 + (code mod 5)) ~llc_target:true
            ~path:(T.Routing.route (E.Fabric.topology fab) nic "socket0") ~size:E.Flow.Unbounded ()
        in
        unbounded := f :: !unbounded
      | _ -> E.Sim.run ~until:(E.Sim.now sim +. (5e4 *. float_of_int (1 + (code / 8 mod 8)))) sim)
    ops;
  E.Sim.run ~until:(E.Sim.now sim +. 1e6) sim

let scan_after ops =
  let sim, fab = make_fabric () in
  apply_ops (sim, fab) ops;
  Rec.Scanport.capture fab

let loaded_snapshot () = scan_after [ 3; 8; 16; 23; 6; 31; 44; 12 ]

(* Snapshots equal bit for bit: the header, then the same register
   paths and kinds in chain order, with every float compared by its
   IEEE-754 bits. Unlike [=], this holds for a NaN register (an
   unrecovered case's [recovered_at]) and tells 0.0 from -0.0. *)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_snapshot (a : Rec.Scanport.snapshot) (b : Rec.Scanport.snapshot) =
  let same_reg (r : Rec.Scanport.reg) (r' : Rec.Scanport.reg) =
    String.equal r.Rec.Scanport.rpath r'.Rec.Scanport.rpath
    && r.Rec.Scanport.rkind = r'.Rec.Scanport.rkind
    &&
    match (r.Rec.Scanport.rvalue, r'.Rec.Scanport.rvalue) with
    | Rec.Scanport.Float x, Rec.Scanport.Float y -> same_bits x y
    | Rec.Scanport.Float _, _ | _, Rec.Scanport.Float _ -> false
    | v, v' -> v = v'
  in
  a.Rec.Scanport.s_version = b.Rec.Scanport.s_version
  && same_bits a.Rec.Scanport.s_at b.Rec.Scanport.s_at
  && a.Rec.Scanport.s_epoch = b.Rec.Scanport.s_epoch
  && Int64.equal a.Rec.Scanport.s_digest b.Rec.Scanport.s_digest
  && List.equal same_reg a.Rec.Scanport.s_regs b.Rec.Scanport.s_regs

(* {1 Unit tests} *)

let unit_tests =
  [
    tc "capture reads a non-trivial chain" (fun () ->
        let s = loaded_snapshot () in
        Alcotest.(check bool) "has registers" true (List.length s.Rec.Scanport.s_regs > 50);
        Alcotest.(check int) "version" Rec.Scanport.version s.Rec.Scanport.s_version;
        Alcotest.(check int64) "digest is the arch fold" s.Rec.Scanport.s_digest
          (Rec.Scanport.digest s));
    tc "find locates registers by path" (fun () ->
        let s = loaded_snapshot () in
        (match Rec.Scanport.find s "epoch" with
        | Some (Rec.Scanport.Int e) -> Alcotest.(check int) "epoch" s.Rec.Scanport.s_epoch e
        | _ -> Alcotest.fail "no epoch register");
        Alcotest.(check bool) "absent path" true (Rec.Scanport.find s "no/such/register" = None));
    tc "json round-trips bit-exactly" (fun () ->
        let s = loaded_snapshot () in
        let s' = Rec.Scanport.of_json (Rec.Scanport.to_json s) in
        Alcotest.(check bool) "equal" true (same_snapshot s s'));
    tc "save/load round-trips through a file" (fun () ->
        let s = loaded_snapshot () in
        let file = Filename.temp_file "scanport" ".scan.json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Rec.Scanport.save file s;
            match Rec.Scanport.load file with
            | Ok s' -> Alcotest.(check bool) "equal" true (same_snapshot s s')
            | Error e -> Alcotest.fail e));
    tc "of_json rejects a tampered digest" (fun () ->
        let s = loaded_snapshot () in
        let bad = { s with Rec.Scanport.s_digest = Int64.lognot s.Rec.Scanport.s_digest } in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Rec.Scanport.of_json (Rec.Scanport.to_json bad));
             false
           with Rec.Trace.Parse_error _ -> true));
    tc "diff of identical snapshots is clean" (fun () ->
        let a = loaded_snapshot () and b = loaded_snapshot () in
        Alcotest.(check bool) "arch" true (Rec.Scanport.diff a b = None);
        Alcotest.(check bool) "all" true (Rec.Scanport.diff ~scope:`All a b = None));
    tc "diff names the first divergent register in chain order" (fun () ->
        let a = scan_after [ 3; 8; 16 ] and b = scan_after [ 3; 8; 16; 6 ] in
        match Rec.Scanport.diff a b with
        | None -> Alcotest.fail "expected a mismatch"
        | Some m ->
          (* the chain leads with the clock, which must differ after
             more simulated work *)
          Alcotest.(check string) "path" "clock/now" m.Rec.Scanport.d_path;
          Alcotest.(check bool) "counts" true (m.Rec.Scanport.d_total > 0));
    tc "a micro register is outside the digest and the default diff" (fun () ->
        let a = loaded_snapshot () in
        let bump (r : Rec.Scanport.reg) =
          match (r.Rec.Scanport.rpath, r.Rec.Scanport.rvalue) with
          | "solver/solves", Rec.Scanport.Int n -> { r with Rec.Scanport.rvalue = Rec.Scanport.Int (n + 1) }
          | _ -> r
        in
        (* of_json derives the digest again and refuses a mismatch *)
        let b =
          Rec.Scanport.of_json
            (Rec.Scanport.to_json { a with Rec.Scanport.s_regs = List.map bump a.Rec.Scanport.s_regs })
        in
        Alcotest.(check int64) "digest" (Rec.Scanport.digest a) (Rec.Scanport.digest b);
        Alcotest.(check bool) "arch scope clean" true (Rec.Scanport.diff a b = None);
        match Rec.Scanport.diff ~scope:`All a b with
        | Some m -> Alcotest.(check string) "micro path" "solver/solves" m.Rec.Scanport.d_path
        | None -> Alcotest.fail "the `All scope missed the micro register");
    tc "the LLC opcode drives the spill loop past its first iteration" (fun () ->
        let sim, fab = make_fabric () in
        apply_ops (sim, fab) [ 7 ];
        (* opcode 15 starts the second LLC writer: one epoch, of one
           component, which solves once per spill iteration it runs *)
        let solves () = (E.Fabric.scan_solver_stats fab).E.Fairshare.solves in
        let s0 = solves () and r0 = E.Fabric.reallocations fab in
        apply_ops (sim, fab) [ 15 ];
        Alcotest.(check int) "one epoch" (r0 + 1) (E.Fabric.reallocations fab);
        Alcotest.(check bool) "spill iterations solved" true (solves () - s0 >= 2));
    tc "capture is a pure read" (fun () ->
        let sim, fab = make_fabric () in
        apply_ops (sim, fab) [ 3; 8; 16; 23 ];
        let a = Rec.Scanport.capture fab in
        (* scan ten more times, then compare against the first: any
           state movement (RNG, clock, generations) would show *)
        for _ = 1 to 10 do
          ignore (Rec.Scanport.capture fab)
        done;
        let b = Rec.Scanport.capture fab in
        Alcotest.(check bool) "identical" true (a = b));
    tc "freeze and single-step epochs" (fun () ->
        let sim, fab = make_fabric () in
        apply_ops (sim, fab) [ 3; 8; 2; 16; 2; 23 ];
        (* queue future work so stepping has events to execute *)
        for i = 0 to 5 do
          let a, b = endpoints.(i mod Array.length endpoints) in
          ignore
            (E.Fabric.start_flow fab ~tenant:1 ~path:(T.Routing.route (E.Fabric.topology fab) a b)
               ~size:(E.Flow.Bytes 2e5) ())
        done;
        let fz = Rec.Scanport.freeze fab in
        let e0 = E.Fabric.scan_epoch fab in
        let ran = Rec.Scanport.step fz 1 in
        Alcotest.(check int) "one epoch ran" 1 ran;
        Alcotest.(check bool) "epoch advanced" true (E.Fabric.scan_epoch fab > e0);
        let more = Rec.Scanport.step fz 3 in
        Alcotest.(check bool) "at most 3" true (more <= 3);
        Alcotest.(check int) "stepped total" (1 + more) (Rec.Scanport.epochs_stepped fz);
        Rec.Scanport.thaw fz;
        Rec.Scanport.thaw fz;
        Alcotest.(check bool) "step after thaw refused" true
          (try
             ignore (Rec.Scanport.step fz 1);
             false
           with Invalid_argument _ -> true));
  ]

(* {1 Properties}

   A random command script's snapshot round-trips through the codec,
   and the digest-only read agrees with capture. *)

let gen_ops = QCheck.(list_of_size Gen.(int_range 1 24) (int_bound 120))

(* A host with every optional register family armed: remediation with
   the heartbeat detector and the evidence gate, and the latency-sketch
   plane. Its scripts inject faults, so cases open and evidence
   arrives. *)
let armed_host ops =
  let h = Ihnet.Host.create ~seed:42 Ihnet.Host.Two_socket in
  ignore
    (Ihnet.Host.enable_remediation h
       ~wiring:{ Ihnet.Host.default_wiring with evidence = true; latency_sketches = true }
       ());
  apply_ops (Ihnet.Host.sim h, Ihnet.Host.fabric h) ops;
  h

(* the digest-only read of [armed_host ops] agrees with its capture,
   and the capture round-trips through the codec *)
let armed_read_matches ops =
  let h = armed_host ops in
  let sum = Ihnet.Host.scan_summary h and snap = Ihnet.Host.scan h in
  sum.Rec.Scanport.sm_epoch = snap.Rec.Scanport.s_epoch
  && sum.Rec.Scanport.sm_regs = List.length snap.Rec.Scanport.s_regs
  && Int64.equal sum.Rec.Scanport.sm_digest snap.Rec.Scanport.s_digest
  && same_snapshot (Rec.Scanport.of_json (Rec.Scanport.to_json snap)) snap

(* words allocated by [f]: on the minor heap, plus directly on the
   major heap (major words not promoted from the minor heap) *)
let allocated_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* the daemon benchmark's host: two sockets, 64 flows DMAing into
   either socket *)
let rpc_host () =
  let host = Ihnet.Host.create ~seed:3 Ihnet.Host.Two_socket in
  let fab = Ihnet.Host.fabric host in
  let pairs =
    [|
      ("nic0", "socket0"); ("nic1", "socket0"); ("gpu0", "socket0"); ("ssd0", "socket0");
      ("nic2", "socket1"); ("gpu1", "socket1"); ("ssd1", "socket1"); ("ext", "socket1");
    |]
  in
  for i = 0 to 63 do
    let a, b = pairs.(i mod Array.length pairs) in
    ignore
      (E.Fabric.start_flow fab ~tenant:(1 + (i mod 16))
         ~demand:(U.Units.gbps (0.5 +. float_of_int (i mod 7)))
         ~path:(T.Routing.route (E.Fabric.topology fab) a b) ~size:E.Flow.Unbounded ())
  done;
  Ihnet.Host.run_for host 1e5;
  host

let summary_tests =
  [
    tc "a NaN register of an open remediation case leaves read, capture and codec agreeing" (fun () ->
        (* this script leaves a case unrecovered, so its recovered_at
           register is NaN: [=] calls the round trip unequal *)
        let ops = [ 12; 12; 12; 0; 12; 0; 0; 0 ] in
        let snap = Ihnet.Host.scan (armed_host ops) in
        Alcotest.(check bool) "a NaN recovered_at" true
          (List.exists
             (fun (r : Rec.Scanport.reg) ->
               String.ends_with ~suffix:"/recovered_at" r.Rec.Scanport.rpath
               && match r.Rec.Scanport.rvalue with Rec.Scanport.Float x -> Float.is_nan x | _ -> false)
             snap.Rec.Scanport.s_regs);
        Alcotest.(check bool) "read, capture and codec agree" true (armed_read_matches ops));
    tc "the digest-only read renders negative indices as capture does" (fun () ->
        let sim, fab = make_fabric () in
        List.iter
          (fun tenant ->
            ignore
              (E.Fabric.start_flow fab ~tenant
                 ~path:(T.Routing.route (E.Fabric.topology fab) "gpu0" "nic0")
                 ~size:E.Flow.Unbounded ()))
          [ -7; min_int ];
        E.Sim.run ~until:1e5 sim;
        let snap = Rec.Scanport.capture fab and sum = Rec.Scanport.summary fab in
        Alcotest.(check bool) "a negative tenant row" true
          (Rec.Scanport.find snap (Printf.sprintf "tenant[%d]/bytes" min_int) <> None);
        Alcotest.(check int64) "digest" snap.Rec.Scanport.s_digest sum.Rec.Scanport.sm_digest);
    tc "the digest-only read of the 64-flow host allocates at most 12.6 kw" (fun () ->
        let host = rpc_host () in
        let sum = Ihnet.Host.scan_summary host and snap = Ihnet.Host.scan host in
        Alcotest.(check int64) "digest" snap.Rec.Scanport.s_digest sum.Rec.Scanport.sm_digest;
        Alcotest.(check int) "registers" (List.length snap.Rec.Scanport.s_regs)
          sum.Rec.Scanport.sm_regs;
        let words =
          allocated_words (fun () -> ignore (Sys.opaque_identity (Ihnet.Host.scan_summary host)))
        in
        if words > 12_600 then
          Alcotest.failf "scan_summary allocated %d words over %d registers" words
            sum.Rec.Scanport.sm_regs);
  ]

let property_tests =
  [
    prop "codec round-trips any reachable snapshot" gen_ops (fun ops ->
        let s = scan_after ops in
        same_snapshot (Rec.Scanport.of_json (Rec.Scanport.to_json s)) s);
    prop "the digest-only read matches capture with every plane armed" ~count:20 gen_ops
      armed_read_matches;
  ]

let suites =
  [
    ("scanport.unit", unit_tests);
    ("scanport.summary", summary_tests);
    ("scanport.property", property_tests);
  ]
