(* E10 — §3.2-Q3: "the schedule and arbitration may need to be finished
   in microsecond level in order to achieve efficient and accurate
   resource management."

   Wall-clock cost of one compile+schedule decision and one arbiter
   enforcement pass, as the host scales from a small box to a
   many-switch monster. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module R = Ihnet_manager
open Common

let wall_clock_ns f =
  (* warm up, then time enough repetitions to dominate timer noise *)
  for _ = 1 to 3 do
    f ()
  done;
  let reps = 50 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps

let scale_row ~sockets ~switches ~devices =
  let topo = T.Builder.scaled ~sockets ~switches_per_socket:switches ~devices_per_switch:devices () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  let intent = R.Intent.pipe ~tenant:1 ~src:"nic0" ~dst:"socket0" ~rate:1e9 in
  let compile_cost =
    wall_clock_ns (fun () ->
        match R.Interpreter.compile topo intent with Ok _ -> () | Error e -> failwith (R.Mgr_error.to_string e))
  in
  let schedule_cost =
    let reqs = Result.get_ok (R.Interpreter.compile topo intent) in
    wall_clock_ns (fun () ->
        let sched = R.Scheduler.create topo () in
        match R.Scheduler.place_all sched reqs with Ok _ -> () | Error e -> failwith (R.Mgr_error.to_string e))
  in
  (* arbiter enforcement: re-sharing one placement among 8 live flows *)
  let mgr = R.Manager.create fab () in
  (match R.Manager.submit mgr intent with Ok _ -> () | Error e -> failwith (R.Mgr_error.to_string e));
  let path = T.Routing.route topo "nic0" "socket0" in
  let flows =
    List.init 8 (fun _ -> E.Fabric.start_flow fab ~tenant:1 ~path ~size:E.Flow.Unbounded ())
  in
  List.iter (fun f -> ignore (R.Manager.attach mgr f)) flows;
  let arbitrate_cost = wall_clock_ns (fun () -> R.Arbiter.refresh (R.Manager.arbiter mgr)) in
  ( Printf.sprintf "%dx%dx%d (%d dev, %d links)" sockets switches devices
      (T.Topology.device_count topo) (T.Topology.link_count topo),
    compile_cost,
    schedule_cost,
    arbitrate_cost )

let run () =
  let rows =
    [
      scale_row ~sockets:1 ~switches:1 ~devices:3;
      scale_row ~sockets:2 ~switches:2 ~devices:4;
      scale_row ~sockets:4 ~switches:4 ~devices:8;
      scale_row ~sockets:8 ~switches:4 ~devices:16;
    ]
  in
  let table =
    U.Table.create ~title:"E10: decision cost vs host scale (wall clock per operation)"
      ~columns:[ "topology"; "interpret"; "schedule"; "arbitrate (8 flows)" ]
  in
  List.iter
    (fun (label, c, s, a) ->
      U.Table.add_row table
        [
          label;
          Format.asprintf "%a" U.Units.pp_time c;
          Format.asprintf "%a" U.Units.pp_time s;
          Format.asprintf "%a" U.Units.pp_time a;
        ])
    rows;
  let _, _, s_big, a_big = List.nth rows 3 in
  let ok = s_big < U.Units.ms 5.0 && a_big < U.Units.ms 1.0 in
  {
    id = "E10";
    title = "microsecond-level management decisions";
    claim = "schedule and arbitration may need to finish at microsecond level (Q3)";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "on the largest host, scheduling costs %s and an arbitration pass %s — %s"
        (Format.asprintf "%a" U.Units.pp_time s_big)
        (Format.asprintf "%a" U.Units.pp_time a_big)
        (if ok then "arbitration fits the microsecond budget; full rescheduling does not \
                     (quantifies Q3's challenge)"
         else "MISMATCH: costs exploded");
  }
