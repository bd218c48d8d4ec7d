(* Fleet control plane: channel fault model, lossy channels, typed
   controller errors, cross-host failover/reconciliation, and the
   determinism property (byte-identical decisions and per-host digests
   at every pool width). *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module M = Ihnet_manager
module F = Ihnet_fleet
module Chanfault = E.Chanfault

let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 30) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* a fast-clocked controller so tests stay in the microsecond range *)
let quick_config =
  {
    F.Controller.default_config with
    F.Controller.round_len = U.Units.us 100.0;
  }

let mk ?(hosts = 2) ?(config = quick_config) ?(seed = 9) ?domains () =
  let t = F.Controller.create ~config ~seed ?domains () in
  for i = 0 to hosts - 1 do
    F.Controller.spawn t ~preset:Ihnet.Host.Minimal (Printf.sprintf "host%d" i)
  done;
  t

let pipe i gbps = M.Intent.pipe ~tenant:i ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps gbps)
let intent i = pipe i 2.0

let placements_of t label tenant =
  match F.Controller.host t label with
  | None -> []
  | Some host -> (
    match Ihnet.Host.manager host with
    | None -> []
    | Some mgr ->
      List.filter (fun (p : M.Placement.t) -> p.M.Placement.tenant = tenant) (M.Manager.placements mgr))

(* {1 Chanfault: RNG only under fault} *)

let chanfault_tests =
  [
    tc "healthy model delivers instantly and never draws" (fun () ->
        let rng = U.Rng.create 1 in
        let before = U.Rng.peek rng in
        (match Chanfault.apply rng Chanfault.none with
        | Chanfault.Delivered { delay = 0; copies = 1 } -> ()
        | _ -> Alcotest.fail "expected instant single delivery");
        Alcotest.(check int64) "no draw" before (U.Rng.peek rng));
    tc "partition drops everything without drawing" (fun () ->
        let rng = U.Rng.create 1 in
        let before = U.Rng.peek rng in
        for _ = 1 to 10 do
          match Chanfault.apply rng Chanfault.partition with
          | Chanfault.Dropped -> ()
          | Chanfault.Delivered _ -> Alcotest.fail "partition leaked a message"
        done;
        Alcotest.(check int64) "no draw" before (U.Rng.peek rng));
    tc "total loss drops, certain duplication copies" (fun () ->
        let rng = U.Rng.create 1 in
        (match Chanfault.apply rng (Chanfault.lossy ~loss:1.0 ()) with
        | Chanfault.Dropped -> ()
        | Chanfault.Delivered _ -> Alcotest.fail "loss 1.0 delivered");
        match Chanfault.apply rng (Chanfault.lossy ~loss:0.0 ~dup_prob:1.0 ()) with
        | Chanfault.Delivered { copies = 2; _ } -> ()
        | _ -> Alcotest.fail "dup 1.0 did not duplicate");
    tc "fixed delay needs no draw; merge adds delays and keeps partition" (fun () ->
        let rng = U.Rng.create 1 in
        let before = U.Rng.peek rng in
        (match Chanfault.apply rng (Chanfault.delayed ~lo:3 ~hi:3) with
        | Chanfault.Delivered { delay = 3; copies = 1 } -> ()
        | _ -> Alcotest.fail "expected delay 3");
        Alcotest.(check int64) "no draw for a fixed delay" before (U.Rng.peek rng);
        let m = Chanfault.merge (Chanfault.delayed ~lo:1 ~hi:2) Chanfault.partition in
        Alcotest.(check bool) "partition dominates" true m.Chanfault.partitioned;
        Alcotest.(check int) "delays add" 1 m.Chanfault.delay_lo;
        Alcotest.(check string) "describe" "partitioned" (Chanfault.describe m));
  ]

(* {1 Channel} *)

let channel_tests =
  [
    tc "perfect channel is a one-tick FIFO and never draws" (fun () ->
        let ch = F.Channel.create (U.Rng.create 3) in
        let before = F.Channel.rng_peek ch in
        F.Channel.send ch "a";
        F.Channel.send ch "b";
        Alcotest.(check (list string)) "in order" [ "a"; "b" ] (F.Channel.tick ch);
        Alcotest.(check (list string)) "drained" [] (F.Channel.tick ch);
        Alcotest.(check int64) "no draw" before (F.Channel.rng_peek ch));
    tc "delay fault postpones delivery by whole ticks" (fun () ->
        let ch = F.Channel.create (U.Rng.create 3) in
        F.Channel.set_fault ch (Chanfault.delayed ~lo:2 ~hi:2);
        F.Channel.send ch 7;
        Alcotest.(check (list int)) "tick 1" [] (F.Channel.tick ch);
        Alcotest.(check (list int)) "tick 2" [] (F.Channel.tick ch);
        Alcotest.(check (list int)) "tick 3" [ 7 ] (F.Channel.tick ch));
    tc "clear models a crash losing everything in flight" (fun () ->
        let ch = F.Channel.create (U.Rng.create 3) in
        F.Channel.send ch 1;
        Alcotest.(check int) "in flight" 1 (F.Channel.in_flight ch);
        F.Channel.clear ch;
        Alcotest.(check (list int)) "gone" [] (F.Channel.tick ch));
  ]

(* {1 Typed fleet errors} *)

let error_tests =
  [
    tc "fleet error constructors render stable messages" (fun () ->
        Alcotest.(check string) "unreachable"
          "host host3 unreachable: control channel timed out"
          (M.Mgr_error.to_string (M.Mgr_error.Host_unreachable "host3"));
        Alcotest.(check string) "retries"
          "retries exhausted sending place to host host3"
          (M.Mgr_error.to_string
             (M.Mgr_error.Retries_exhausted { host = "host3"; command = "place" }));
        Alcotest.(check string) "no feasible host"
          "tenant 7: no host in the fleet can admit the placement"
          (M.Mgr_error.to_string (M.Mgr_error.No_feasible_host { tenant = 7 }));
        (* the pre-existing constructors still render byte-identically *)
        Alcotest.(check string) "legacy unchanged"
          "only pipe placements can be re-placed"
          (M.Mgr_error.to_string M.Mgr_error.Not_a_pipe));
  ]

(* {1 Controller: placement, failover, reconciliation} *)

let has_decision t pred = List.exists pred (F.Controller.decisions t)

let controller_tests =
  [
    tc "tenants land on the least-loaded hosts and stay put" (fun () ->
        let t = mk ~hosts:3 () in
        F.Controller.submit t (intent 1);
        F.Controller.submit t (intent 2);
        F.Controller.submit t (intent 3);
        F.Controller.run t ~rounds:6;
        let homes =
          List.filter_map
            (fun i ->
              match F.Controller.tenant_view t i with
              | Some (F.Controller.Placed l) -> Some l
              | _ -> None)
            [ 1; 2; 3 ]
        in
        Alcotest.(check int) "all placed" 3 (List.length homes);
        (* least-loaded spreading: three equal tenants, three hosts *)
        Alcotest.(check int) "spread out" 3 (List.length (List.sort_uniq compare homes));
        Alcotest.(check bool) "no migrations on a healthy fleet" false
          (has_decision t (function F.Controller.D_migrated _ -> true | _ -> false)));
    tc "a crashed host's tenants fail over to a sibling" (fun () ->
        let t = mk ~hosts:2 () in
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:4;
        let home =
          match F.Controller.tenant_view t 1 with
          | Some (F.Controller.Placed l) -> l
          | _ -> Alcotest.fail "tenant 1 not placed"
        in
        F.Controller.crash t home;
        F.Controller.run t ~rounds:12;
        Alcotest.(check bool) "host declared lost" true
          (has_decision t (function
            | F.Controller.D_host_lost { host } -> host = home
            | _ -> false));
        (match F.Controller.tenant_view t 1 with
        | Some (F.Controller.Placed l) ->
          Alcotest.(check bool) "moved off the dead host" true (l <> home)
        | _ -> Alcotest.fail "tenant 1 lost during failover");
        Alcotest.(check bool) "migration recorded as host-down" true
          (has_decision t (function
            | F.Controller.D_migrated { tenant = 1; from_; reason = F.Controller.Host_down; _ } ->
              from_ = home
            | _ -> false)));
    tc "no feasible host yields an explicit degraded verdict, restored on clear" (fun () ->
        let t = mk ~hosts:1 () in
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:4;
        F.Controller.crash t "host0";
        F.Controller.run t ~rounds:12;
        (match F.Controller.tenant_view t 1 with
        | Some F.Controller.Fleet_degraded -> ()
        | _ -> Alcotest.fail "expected a fleet-level degraded verdict");
        Alcotest.(check bool) "degraded decision carries No_feasible_host" true
          (has_decision t (function
            | F.Controller.D_degraded
                { tenant = 1; cause = M.Mgr_error.No_feasible_host { tenant = 1 } } ->
              true
            | _ -> false));
        F.Controller.restart t "host0";
        F.Controller.run t ~rounds:16;
        (match F.Controller.tenant_view t 1 with
        | Some (F.Controller.Placed "host0") -> ()
        | _ -> Alcotest.fail "tenant not restored after the host came back");
        Alcotest.(check bool) "restore recorded" true
          (has_decision t (function
            | F.Controller.D_restored { tenant = 1; host = "host0" } -> true
            | _ -> false)));
    tc "a healed partition reconciles without double-applying commands" (fun () ->
        let t = mk ~hosts:2 () in
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:4;
        let home =
          match F.Controller.tenant_view t 1 with
          | Some (F.Controller.Placed l) -> l
          | _ -> Alcotest.fail "tenant 1 not placed"
        in
        let other = if home = "host0" then "host1" else "host0" in
        F.Controller.partition t home;
        F.Controller.run t ~rounds:12;
        (* failed over while the partitioned host kept serving on its
           last-known policy *)
        (match F.Controller.tenant_view t 1 with
        | Some (F.Controller.Placed l) -> Alcotest.(check string) "failed over" other l
        | _ -> Alcotest.fail "tenant 1 not failed over");
        Alcotest.(check int) "old host still runs the last-known policy" 1
          (List.length (placements_of t home 1));
        F.Controller.heal t home;
        F.Controller.run t ~rounds:12;
        Alcotest.(check bool) "stray revoked on heal" true
          (has_decision t (function
            | F.Controller.D_reconciled { host; revoked = [ 1 ] } -> host = home
            | _ -> false));
        Alcotest.(check int) "stray copy gone" 0 (List.length (placements_of t home 1));
        Alcotest.(check int) "exactly one live placement fleet-wide" 1
          (List.length (placements_of t other 1)));
    tc "lossy duplicated channels still apply each command exactly once" (fun () ->
        let t = mk ~hosts:1 ~seed:21 () in
        F.Controller.set_chanfault t "host0"
          (Chanfault.lossy ~loss:0.3 ~dup_prob:0.5 ());
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:40;
        (match F.Controller.tenant_view t 1 with
        | Some (F.Controller.Placed "host0") -> ()
        | _ -> Alcotest.fail "tenant never landed through the lossy channel");
        Alcotest.(check int) "single application despite retries and duplicates" 1
          (List.length (placements_of t "host0" 1)));
    tc "the fleet roll-up sees controller SLO verdicts" (fun () ->
        let t = mk ~hosts:2 () in
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:6;
        let f = F.Controller.collect t in
        Alcotest.(check int) "both hosts in the roll-up" 2
          (List.length f.Ihnet_monitor.Fleet.hosts);
        List.iter
          (fun (s : Ihnet_monitor.Fleet.host_status) ->
            Alcotest.(check int) "no violated SLO on a healthy fleet" 0
              s.Ihnet_monitor.Fleet.slo_violated)
          f.Ihnet_monitor.Fleet.hosts);
  ]

(* {1 Idle discipline: a dormant controller is invisible} *)

let idle_tests =
  [
    tc "wrapping an unmanaged host leaves its run byte-identical" (fun () ->
        let build () =
          let host = Ihnet.Host.create ~seed:11 Ihnet.Host.Minimal in
          let fab = Ihnet.Host.fabric host in
          let topo = Ihnet.Host.topology host in
          let p = T.Routing.route topo "nic0" "socket0" in
          ignore (E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded ());
          host
        in
        let bare = build () in
        for _ = 1 to 20 do
          Ihnet.Host.run_for bare (U.Units.us 100.0)
        done;
        let wrapped = build () in
        let t = F.Controller.create ~config:quick_config ~seed:9 () in
        F.Controller.add_host t ~label:"solo" wrapped;
        let rng_before = F.Controller.channel_rng_peek t "solo" in
        F.Controller.run t ~rounds:20;
        Alcotest.(check int64) "scan digests equal"
          (Ihnet.Host.scan bare).Ihnet_record.Scanport.s_digest
          (Ihnet.Host.scan wrapped).Ihnet_record.Scanport.s_digest;
        Alcotest.(check int) "no decisions" 0 (List.length (F.Controller.decisions t));
        Alcotest.(check int64) "channel plane never drew" rng_before
          (F.Controller.channel_rng_peek t "solo"));
  ]

(* {1 Idle rounds and the reconcile index} *)

let host_allocs t =
  List.fold_left
    (fun acc label ->
      match F.Controller.host t label with
      | Some host -> acc + E.Fabric.reallocations (Ihnet.Host.fabric host)
      | None -> acc)
    0 (F.Controller.hosts t)

(* hosts whose manager carries the tenant *)
let backers t tenant =
  List.filter
    (fun label ->
      match F.Controller.host t label with
      | Some host -> (
        match Ihnet.Host.manager host with
        | Some mgr -> List.mem tenant (M.Manager.tenants mgr)
        | None -> false)
      | None -> false)
    (F.Controller.hosts t)

let placed_on t i =
  match F.Controller.tenant_view t i with
  | Some (F.Controller.Placed l) -> l
  | _ -> Alcotest.failf "tenant %d not placed" i

let decision_tenant = function
  | F.Controller.D_placed { tenant; _ }
  | F.Controller.D_migrated { tenant; _ }
  | F.Controller.D_degraded { tenant; _ }
  | F.Controller.D_restored { tenant; _ }
  | F.Controller.D_command_failed { tenant; _ } ->
    Some tenant
  | F.Controller.D_host_lost _ | F.Controller.D_host_recovered _ | F.Controller.D_held_down _
  | F.Controller.D_reconciled _ ->
    None

let idle_round_tests =
  [
    tc "a converged round over idle hosts opens no epoch on any host" (fun () ->
        let t = mk ~hosts:20 ~config:F.Controller.default_config () in
        for i = 1 to 20 do
          F.Controller.submit t (intent i)
        done;
        F.Controller.run t ~rounds:6;
        List.iter (fun i -> ignore (placed_on t i)) (List.init 20 (fun i -> i + 1));
        let before = host_allocs t and decisions = List.length (F.Controller.decisions t) in
        F.Controller.round t;
        Alcotest.(check int) "no decision" decisions (List.length (F.Controller.decisions t));
        Alcotest.(check int) "no reallocation on any host" before (host_allocs t));
    tc "a quick restart fails over exactly the restarted host's tenants" (fun () ->
        (* crash and restart with no round between: the controller never
           declares the host lost, so only reconcile notices that the new
           incarnation carries none of the tenants it holds Placed there *)
        let t = mk ~hosts:3 ~seed:3 () in
        let ids = List.init 6 (fun i -> i + 1) in
        List.iter (fun i -> F.Controller.submit t (intent i)) ids;
        F.Controller.run t ~rounds:6;
        let lost = List.filter (fun i -> placed_on t i = "host0") ids in
        Alcotest.(check (list int)) "host0's tenants" [ 1; 4 ] lost;
        let seen = List.length (F.Controller.decisions t) in
        F.Controller.crash t "host0";
        F.Controller.restart t "host0";
        F.Controller.run t ~rounds:8;
        let fresh = List.filteri (fun i _ -> i >= seen) (F.Controller.decisions t) in
        Alcotest.(check bool) "never declared lost" false
          (List.exists (function F.Controller.D_host_lost _ -> true | _ -> false) fresh);
        Alcotest.(check (list int)) "new decisions only for host0's tenants" lost
          (List.sort_uniq compare (List.filter_map decision_tenant fresh));
        List.iter
          (fun i ->
            Alcotest.(check (list string))
              (Printf.sprintf "tenant %d backed once, where it is Placed" i)
              [ placed_on t i ] (backers t i))
          ids);
    tc "a width-1 round advances every host on the calling domain, however wide the pool"
      (fun () ->
        let idle_round_words () =
          let t =
            F.Controller.create ~config:F.Controller.default_config ~seed:13 ~domains:1 ()
          in
          for i = 0 to 199 do
            F.Controller.spawn t ~preset:Ihnet.Host.Minimal (Printf.sprintf "host%03d" i)
          done;
          F.Controller.run t ~rounds:3;
          let before = Gc.minor_words () in
          F.Controller.round t;
          Gc.minor_words () -. before
        in
        (* start from a shared pool that has never been wider than 1 *)
        U.Pool.shutdown (U.Pool.get 1);
        let alone = idle_round_words () in
        F.Controller.run (mk ~hosts:8 ~domains:4 ()) ~rounds:3;
        let after = idle_round_words () in
        (* Gc.minor_words counts this domain only: a host advanced on a
           worker would not show *)
        if after <> alone then
          Alcotest.failf "an idle width-1 round allocated %.0f words here after a 4-wide run, %.0f before"
            after alone);
  ]

(* {1 In-flight commands: each way a Primary command ends frees its tenant}

   The control step sends a tenant no new Primary command while one is
   in flight. Each test ends one command a different way and then needs
   the control step to act on the same tenant again: a tenant the
   controller still believed busy would stay unplaced. *)

let view t i =
  match F.Controller.tenant_view t i with
  | None -> "unregistered"
  | Some F.Controller.Unplaced -> "unplaced"
  | Some (F.Controller.Placing l) -> "placing on " ^ l
  | Some (F.Controller.Placed l) -> "placed on " ^ l
  | Some (F.Controller.Migrating { from_; to_ }) -> Printf.sprintf "migrating %s -> %s" from_ to_
  | Some F.Controller.Fleet_degraded -> "fleet-degraded"

(* run rounds until tenant [i] is placed on [label], at most [within] *)
let lands t i label ~within =
  let want = "placed on " ^ label in
  let n = ref 0 in
  while !n < within && view t i <> want do
    incr n;
    F.Controller.round t
  done;
  Alcotest.(check string) (Printf.sprintf "tenant %d within %d round(s)" i within) want (view t i)

let command_failed t ~host ~tenant error =
  has_decision t (function
    | F.Controller.D_command_failed d -> d.host = host && d.tenant = tenant && d.error = error
    | _ -> false)

let inflight_tests =
  [
    tc "an acked place frees the tenant for its failover" (fun () ->
        let t = mk ~hosts:2 () in
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:2;
        Alcotest.(check string) "placed by the ack" "host0" (placed_on t 1);
        F.Controller.crash t "host0";
        (* lost after unreachable_after = 3 silent rounds, placed one round later *)
        lands t 1 "host1" ~within:6);
    tc "a refused place spills the tenant to the next host" (fun () ->
        let t = F.Controller.create ~config:quick_config ~seed:9 () in
        F.Controller.spawn t ~preset:Ihnet.Host.Minimal "host0";
        F.Controller.spawn t ~preset:Ihnet.Host.Two_socket "host1";
        (* a Minimal host has no gpu0, so host0 refuses; equal loads sent it there first *)
        F.Controller.submit t
          (M.Intent.pipe ~tenant:1 ~src:"gpu0" ~dst:"socket0" ~rate:(U.Units.gbps 2.0));
        (* sent in round 1, refused in round 2, whose control step re-places it *)
        F.Controller.run t ~rounds:2;
        Alcotest.(check string) "refused, then sent on" "placing on host1" (view t 1);
        lands t 1 "host1" ~within:1;
        Alcotest.(check int) "the refusing host holds nothing" 0
          (List.length (placements_of t "host0" 1)));
    tc "an exhausted place frees the tenant for the next host" (fun () ->
        let config =
          {
            quick_config with
            F.Controller.cmd_timeout = 1;
            max_retries = 1;
            backoff_factor = 1.0;
            unreachable_after = 20;
          }
        in
        let t = mk ~hosts:2 ~config () in
        F.Controller.set_chanfault t "host0" (Chanfault.lossy ~loss:1.0 ());
        F.Controller.submit t (intent 1);
        (* sent in round 1, resent in round 2, abandoned in round 3 *)
        F.Controller.run t ~rounds:3;
        Alcotest.(check bool) "Retries_exhausted" true
          (command_failed t ~host:"host0" ~tenant:1
             (M.Mgr_error.Retries_exhausted { host = "host0"; command = "place" }));
        lands t 1 "host1" ~within:2;
        Alcotest.(check bool) "host0 never declared lost" false
          (has_decision t (function F.Controller.D_host_lost _ -> true | _ -> false)));
    tc "losing the host under an in-flight place frees the tenant" (fun () ->
        let t = mk ~hosts:2 () in
        F.Controller.submit t (intent 1);
        F.Controller.round t;
        Alcotest.(check string) "place in flight" "placing on host0" (view t 1);
        F.Controller.crash t "host0";
        (* its last report was round 1's: lost in round 5, which abandons
           the retried place before its retries run out *)
        F.Controller.run t ~rounds:4;
        Alcotest.(check bool) "abandoned as Host_unreachable" true
          (command_failed t ~host:"host0" ~tenant:1 (M.Mgr_error.Host_unreachable "host0"));
        lands t 1 "host1" ~within:2);
  ]

(* {1 Placement: least believed load, then lowest index} *)

(* Starve tenant [i]'s placement on [label] with a running flow over a
   link degraded to 1% of its capacity: the host's next report names it
   sick, which sends it to migration. *)
let make_sick t label i =
  match F.Controller.host t label with
  | None -> Alcotest.failf "%s is down" label
  | Some host ->
    let mgr = Option.get (Ihnet.Host.manager host) and fab = Ihnet.Host.fabric host in
    let p =
      List.find (fun (p : M.Placement.t) -> p.M.Placement.tenant = i) (M.Manager.placements mgr)
    in
    let path = p.M.Placement.path in
    let f = E.Fabric.start_flow fab ~tenant:i ~path ~size:E.Flow.Unbounded () in
    ignore (M.Manager.attach mgr f);
    let hop = List.hd path.T.Path.hops in
    E.Fabric.inject_fault fab hop.T.Path.link.T.Link.id (E.Fault.degrade ~capacity_factor:0.01 ())

let placement_tests =
  [
    tc "equal believed loads go to the lowest host index" (fun () ->
        let t = mk ~hosts:4 () in
        List.iter (fun i -> F.Controller.submit t (intent i)) [ 1; 2; 3; 4 ];
        F.Controller.run t ~rounds:3;
        Alcotest.(check (list string)) "one each, in index order"
          [ "host0"; "host1"; "host2"; "host3" ]
          (List.map (placed_on t) [ 1; 2; 3; 4 ]);
        (* every host now carries 2 Gb/s: the tie goes to host0 again *)
        F.Controller.submit t (intent 5);
        lands t 5 "host0" ~within:2;
        F.Controller.revoke t ~tenant:2;
        F.Controller.revoke t ~tenant:3;
        F.Controller.run t ~rounds:3;
        (* host1 and host2 tie at zero below host0 and host3 *)
        F.Controller.submit t (intent 6);
        lands t 6 "host1" ~within:2);
    tc "a held-down host is skipped although it is least loaded" (fun () ->
        let config =
          {
            quick_config with
            F.Controller.unreachable_after = 1;
            flap_threshold = 2;
            holddown = 50;
          }
        in
        let t = mk ~hosts:2 ~config () in
        F.Controller.partition t "host0";
        F.Controller.run t ~rounds:2;
        F.Controller.heal t "host0";
        F.Controller.round t;
        Alcotest.(check bool) "lost and recovered: held down" true
          (has_decision t (function
            | F.Controller.D_held_down { host } -> host = "host0"
            | _ -> false));
        F.Controller.submit t (intent 1);
        lands t 1 "host1" ~within:2);
    tc "a migrating tenant's guarantee counts on both ends" (fun () ->
        let t = mk ~hosts:3 () in
        F.Controller.submit t (pipe 1 3.0);
        F.Controller.submit t (pipe 2 1.0);
        F.Controller.submit t (pipe 3 2.0);
        F.Controller.run t ~rounds:3;
        Alcotest.(check (list string)) "3, 1 and 2 Gb/s on hosts 0, 1, 2"
          [ "host0"; "host1"; "host2" ]
          (List.map (placed_on t) [ 1; 2; 3 ]);
        (* delay host1's channels so the move stays in flight for rounds *)
        F.Controller.set_chanfault t "host1" (Chanfault.delayed ~lo:2 ~hi:2);
        make_sick t "host0" 1;
        F.Controller.round t;
        Alcotest.(check string) "tenant 1 moves to the least-loaded other host"
          "migrating host0 -> host1" (view t 1);
        (* believed: host0 3, host1 1 + 3, host2 2; counting the mover on
           one end only would send tenant 4 to host0 or host1 *)
        F.Controller.submit t (pipe 4 1.0);
        F.Controller.round t;
        Alcotest.(check string) "still migrating" "migrating host0 -> host1" (view t 1);
        Alcotest.(check string) "tenant 4 goes to host2" "placing on host2" (view t 4));
    tc "placing a tenant allocates at most 500 words more than an idle round" (fun () ->
        let converged () =
          let t =
            F.Controller.create ~config:F.Controller.default_config ~seed:13 ~domains:1 ()
          in
          for i = 0 to 199 do
            F.Controller.spawn t ~preset:Ihnet.Host.Minimal (Printf.sprintf "host%03d" i)
          done;
          for i = 1 to 200 do
            F.Controller.submit t (intent i)
          done;
          F.Controller.run t ~rounds:30;
          ignore (placed_on t 200);
          t
        in
        let words t =
          let before = Gc.minor_words () in
          F.Controller.round t;
          Gc.minor_words () -. before
        in
        let busy = converged () and idle = converged () in
        F.Controller.submit busy (intent 201);
        let placing = words busy in
        let idling = words idle in
        Alcotest.(check bool) "the round sent the place" true
          (String.starts_with ~prefix:"placing on " (view busy 201));
        let extra = placing -. idling in
        if extra > 500.0 then
          Alcotest.failf "placing one tenant allocated %.0f more minor words than an idle round"
            extra);
  ]

(* {1 Determinism: byte-identical at every pool width} *)

(* A random fleet op sequence, interpreted identically against
   controllers running their host-shard phase at pool widths 1, 2 and
   4: the rendered decision logs and every per-host scan digest must
   be byte-identical (MODEL.md §16). Ops are small ints so qcheck
   shrinks nicely. *)
let interpret ops ~domains =
  let t = mk ~hosts:4 ~seed:77 ~domains () in
  let next_tenant = ref 0 in
  List.iter
    (fun op ->
      match op mod 8 with
      | 0 | 1 ->
        incr next_tenant;
        F.Controller.submit t (intent !next_tenant)
      | 2 ->
        let label = Printf.sprintf "host%d" (op / 8 mod 4) in
        if F.Controller.host_view t label <> Some F.Controller.Crashed then
          F.Controller.crash t label
      | 3 ->
        let label = Printf.sprintf "host%d" (op / 8 mod 4) in
        if F.Controller.host_view t label = Some F.Controller.Crashed then
          F.Controller.restart t label
      | 4 -> F.Controller.partition t (Printf.sprintf "host%d" (op / 8 mod 4))
      | 5 -> F.Controller.heal t (Printf.sprintf "host%d" (op / 8 mod 4))
      | _ -> F.Controller.round t)
    ops;
  F.Controller.run t ~rounds:4;
  ( F.Controller.decisions_fingerprint t,
    F.Controller.digest t,
    F.Controller.host_digests t )

let determinism_props =
  [
    prop "random op sequences are byte-identical at pool widths 1, 2 and 4" ~count:10
      QCheck.(list_of_size Gen.(int_range 4 24) (int_range 0 255))
      (fun ops ->
        let fp1, d1, h1 = interpret ops ~domains:1 in
        let fp2, d2, h2 = interpret ops ~domains:2 in
        let fp4, d4, h4 = interpret ops ~domains:4 in
        fp1 = fp2 && fp2 = fp4 && d1 = d2 && d2 = d4 && h1 = h2 && h2 = h4);
  ]

let suites =
  [
    ("fleet.chanfault", chanfault_tests);
    ("fleet.channel", channel_tests);
    ("fleet.errors", error_tests);
    ("fleet.controller", controller_tests);
    ("fleet.idle", idle_tests);
    ("fleet.idle-round", idle_round_tests);
    ("fleet.inflight", inflight_tests);
    ("fleet.placement", placement_tests);
    ("fleet.determinism", determinism_props);
  ]
