(* E11 — §3.2-Q1: "If work-conserving should or can be supported also
   remains unknown."

   Two tenants hold equal 10 GB/s guarantees on the same PCIe subtree;
   tenant B is idle half the time (on/off). Under strict reservations
   (floor = cap) B's idle capacity is wasted; work-conserving floors let
   A borrow it and return it within one arbitration period when B
   comes back. We report A's throughput, fabric utilization, and B's
   guarantee compliance while active. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module R = Ihnet_manager
open Common

let guarantee = 10e9

let run_mode ~work_conserving =
  let host = fresh_host () in
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let mgr = R.Manager.create fab () in
  R.Manager.start_shim mgr ~period:(U.Units.us 50.0);
  let intent tenant =
    {
      (R.Intent.pipe ~tenant ~src:"ext" ~dst:"socket0" ~rate:guarantee) with
      R.Intent.work_conserving;
    }
  in
  (match R.Manager.submit mgr (intent 1) with Ok _ -> () | Error e -> failwith (R.Mgr_error.to_string e));
  (match R.Manager.submit mgr (intent 2) with Ok _ -> () | Error e -> failwith (R.Mgr_error.to_string e));
  let path =
    T.Path.concat
      (T.Routing.route topo "ext" "nic0")
      (T.Routing.route topo "nic0" "socket0")
  in
  (* tenant A: always-on elastic; tenant B: 50% duty cycle, 2 ms period *)
  let a = E.Fabric.start_flow fab ~tenant:1 ~llc_target:true ~path ~size:E.Flow.Unbounded () in
  let b_active = ref None in
  let b_rates = ref [] and a_rates = ref [] in
  let sim = Ihnet.Host.sim host in
  let rec b_cycle on _ =
    (match (on, !b_active) with
    | true, None ->
      b_active :=
        Some (E.Fabric.start_flow fab ~tenant:2 ~llc_target:true ~path ~size:E.Flow.Unbounded ())
    | false, Some f ->
      E.Fabric.stop_flow fab f;
      b_active := None
    | _ -> ());
    E.Sim.schedule sim ~after:(U.Units.ms 1.0) (b_cycle (not on))
  in
  E.Sim.schedule sim ~after:0.0 (b_cycle true);
  (* sample rates every 100 us for 20 ms *)
  for _ = 1 to 200 do
    Ihnet.Host.run_for host (U.Units.us 100.0);
    a_rates := a.E.Flow.rate :: !a_rates;
    match !b_active with
    | Some f when f.E.Flow.state = E.Flow.Running -> b_rates := f.E.Flow.rate :: !b_rates
    | _ -> ()
  done;
  let mean xs = U.Stats.mean (Array.of_list xs) in
  let a_mean = mean !a_rates in
  let b_mean = mean !b_rates in
  (* B's guarantee compliance while active *)
  let b_ok =
    let violations = List.filter (fun r -> r < guarantee *. 0.95) !b_rates in
    1.0 -. (float_of_int (List.length violations) /. float_of_int (max 1 (List.length !b_rates)))
  in
  (a_mean, b_mean, b_ok)

let run () =
  let a_strict, b_strict, ok_strict = run_mode ~work_conserving:false in
  let a_wc, b_wc, ok_wc = run_mode ~work_conserving:true in
  let table =
    U.Table.create ~title:"E11: strict reservation vs work-conserving guarantees"
      ~columns:
        [ "mode"; "tenant A mean rate"; "tenant B mean rate (active)"; "B guarantee compliance" ]
  in
  let add label a b ok =
    U.Table.add_row table
      [
        label;
        Printf.sprintf "%.1f GB/s" (gb a);
        Printf.sprintf "%.1f GB/s" (gb b);
        Printf.sprintf "%.0f%%" (ok *. 100.0);
      ]
  in
  add "strict (floor = cap)" a_strict b_strict ok_strict;
  add "work-conserving" a_wc b_wc ok_wc;
  let ok = a_wc > a_strict *. 1.3 && ok_wc > 0.9 && ok_strict > 0.9 in
  {
    id = "E11";
    title = "work-conserving guarantees";
    claim =
      "whether work-conserving sharing can be supported is open (Q1); it should lift \
       utilization without breaking guarantees";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "work-conserving lifts tenant A from %.1f to %.1f GB/s while B keeps its guarantee \
         %.0f%% of the time — %s"
        (gb a_strict) (gb a_wc) (ok_wc *. 100.0)
        (if ok then "work-conserving is viable (answers Q1 affirmatively)" else "MISMATCH");
  }
