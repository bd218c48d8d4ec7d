(* E20 — victim tenant throughput through a host crash: fleet
   controller vs unmanaged.

   §3.1's management plane is usually argued one host at a time; this
   experiment measures what the cross-host half buys. A victim tenant
   holds a 2 Gb/s pipe guarantee and pushes one round-sized quantum of
   traffic per control round over whatever placement backs it. Twenty
   rounds in, the host under it loses power.

   - Unmanaged: nothing re-places the tenant. Its service drops to
     zero at the crash and stays there — even after the box powers
     back on, the placement died with the old incarnation.
   - Fleet controller: missed health reports mark the host lost after
     [unreachable_after] rounds, the tenant fails over to the
     least-loaded surviving host, and service resumes — the outage is
     the detection window plus one placement round-trip, not the rest
     of the run.

   Service is measured per round as delivered quanta: a bounded flow
   sized to [rate x round_len] is started on the backing placement's
   path and must reach [Completed] by the end of the round. *)

module E = Ihnet_engine
module U = Ihnet_util
module R = Ihnet_manager
module F = Ihnet_fleet
open Common

let rate = U.Units.gbps 2.0
let round_len = U.Units.us 100.0
let warm = 20 (* measured pre-crash rounds *)
let outage = 40 (* rounds the host stays down *)
let tail = 20 (* measured rounds after power-on *)
let victim = 1

let quantum = rate *. (round_len /. 1e9)
let intent i = R.Intent.pipe ~tenant:i ~src:"nic0" ~dst:"socket0" ~rate

(* The victim's backing placement on [host], if any. *)
let backing host =
  match Ihnet.Host.manager host with
  | None -> None
  | Some mgr ->
    List.find_map
      (fun (p : R.Placement.t) ->
        if p.R.Placement.tenant = victim then Some (host, p) else None)
      (R.Manager.placements mgr)

(* One measured round: push the quantum over the backing placement (if
   any), advance via [step], report whether it completed. *)
let serve back step =
  match back with
  | None ->
    step ();
    false
  | Some (host, (p : R.Placement.t)) ->
    let f =
      E.Fabric.start_flow (Ihnet.Host.fabric host) ~tenant:victim ~demand:(4.0 *. rate)
        ~path:p.R.Placement.path ~size:(E.Flow.Bytes quantum) ()
    in
    step ();
    f.E.Flow.state = E.Flow.Completed

type phase = { served : int; total : int }

type outcome = {
  label : string;
  pre : phase;
  during : phase;
  post : phase;
  failover : int option;  (** Rounds from crash to first served round. *)
}

let measure label ~back ~step ~crash ~restore =
  let count n back_at =
    let served = ref 0 in
    for _ = 1 to n do
      if serve (back_at ()) step then incr served
    done;
    { served = !served; total = n }
  in
  let pre = count warm back in
  crash ();
  let first_served = ref None in
  let served = ref 0 in
  for r = 1 to outage do
    if serve (back ()) step then begin
      incr served;
      if !first_served = None then first_served := Some r
    end
  done;
  let during = { served = !served; total = outage } in
  restore ();
  let post = count tail back in
  { label; pre; during; post; failover = !first_served }

let run_fleet () =
  let cfg = { F.Controller.default_config with F.Controller.round_len } in
  let t = F.Controller.create ~config:cfg ~seed:20 () in
  for i = 0 to 2 do
    F.Controller.spawn t ~preset:Ihnet.Host.Minimal (Printf.sprintf "host%d" i)
  done;
  for i = 1 to 3 do
    F.Controller.submit t (intent i)
  done;
  (* settle initial placement before the measured window opens *)
  F.Controller.run t ~rounds:5;
  let back () =
    List.find_map
      (fun l -> Option.bind (F.Controller.host t l) backing)
      (F.Controller.hosts t)
  in
  let home =
    match F.Controller.tenant_view t victim with
    | Some (F.Controller.Placed l) -> l
    | _ -> failwith "E20: victim not placed after settling"
  in
  measure "fleet controller (failover)" ~back
    ~step:(fun () -> F.Controller.round t)
    ~crash:(fun () -> F.Controller.crash t home)
    ~restore:(fun () -> F.Controller.restart t home)

let run_unmanaged () =
  let host = ref (Some (Ihnet.Host.create ~seed:20 Ihnet.Host.Minimal)) in
  let place h =
    ignore (Ihnet.Host.enable_manager h ());
    match Ihnet.Host.submit_intent h (intent victim) with
    | Ok _ -> ()
    | Error e -> failwith ("E20: admission refused: " ^ R.Mgr_error.to_string e)
  in
  Option.iter place !host;
  let back () = Option.bind !host backing in
  measure "unmanaged host" ~back
    ~step:(fun () -> Option.iter (fun h -> Ihnet.Host.run_for h round_len) !host)
    ~crash:(fun () -> host := None)
    ~restore:(fun () ->
      (* the box powers back on as a fresh incarnation; nobody
         re-submits the tenant's intent *)
      host := Some (Ihnet.Host.create ~seed:21 Ihnet.Host.Minimal))

let run () =
  let fleet = run_fleet () in
  let bare = run_unmanaged () in
  let table =
    U.Table.create ~title:"E20: victim service through a host crash (quanta delivered/rounds)"
      ~columns:[ "scenario"; "pre-crash"; "host down"; "after power-on"; "failover" ]
  in
  let ph p = Printf.sprintf "%d/%d" p.served p.total in
  List.iter
    (fun o ->
      U.Table.add_row table
        [
          o.label;
          ph o.pre;
          ph o.during;
          ph o.post;
          (match o.failover with
          | Some r -> Printf.sprintf "%d round(s)" r
          | None -> "never");
        ])
    [ fleet; bare ];
  let ok =
    fleet.pre.served = fleet.pre.total
    && fleet.during.served >= fleet.during.total - 10
    && fleet.post.served = fleet.post.total
    && fleet.failover <> None
    && bare.pre.served = bare.pre.total
    && bare.during.served = 0
    && bare.post.served = 0
  in
  {
    id = "E20";
    title = "cross-host failover through a host crash";
    claim =
      "a fleet-level control loop turns a host crash into a bounded service gap for its \
       tenants, where an unmanaged fleet turns it into a permanent outage";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "victim served %d/%d round(s) through the outage (back after %s) and %d/%d after \
         power-on under the controller, vs %d/%d and %d/%d unmanaged — %s"
        fleet.during.served fleet.during.total
        (match fleet.failover with
        | Some r -> Printf.sprintf "%d round(s)" r
        | None -> "never")
        fleet.post.served fleet.post.total bare.during.served bare.during.total bare.post.served
        bare.post.total
        (if ok then "matches the fleet-manageability goal" else "MISMATCH");
  }
