(* fleet-round: one fleet control round.

   A controller at the default pool width runs 200 Minimal hosts, each
   carrying one placed pipe tenant of a seeded rate. One op revokes the
   oldest tenant, submits a new one and runs one [Controller.round]:
   hundreds of near-idle host advances, the channel tick, report
   folding and placement. Here [Host.run_for] costs per
   tick, not per flow, the opposite of host-churn. *)

module U = Ihnet_util
module M = Ihnet_manager
module F = Ihnet_fleet.Controller

type state = {
  ctl : F.t;
  rng : U.Rng.t;
  mutable inputs : int64;  (** FNV-1a over every submitted (tenant, rate). *)
  mutable oldest : int;
  mutable next : int;
  spans : Span.t;
  revoke_span : int;
  submit_span : int;
  round_span : int;
}

let population = 200

let submit st tenant =
  let rate = U.Units.gbps (1.0 +. U.Rng.float st.rng 3.0) in
  st.inputs <- Ihnet_record.Trace.(fnv_float (fnv_int st.inputs tenant) rate);
  F.submit st.ctl (M.Intent.pipe ~tenant ~src:"nic0" ~dst:"socket0" ~rate)

let unplaced ctl =
  List.filter
    (fun id -> match F.tenant_view ctl id with Some (F.Placed _) -> false | _ -> true)
    (F.tenants ctl)

(* rounds until every registered tenant is placed, at most [rounds] *)
let drain ctl ~rounds =
  let n = ref 0 in
  while unplaced ctl <> [] && !n < rounds do
    incr n;
    F.round ctl
  done

let setup ~seed ~traced:_ spans =
  let ctl = F.create ~seed () in
  for i = 0 to population - 1 do
    F.spawn ctl ~preset:Ihnet.Host.Minimal (Printf.sprintf "host%04d" i)
  done;
  let st =
    {
      ctl;
      rng = U.Rng.stream seed 0;
      inputs = Ihnet_record.Trace.fnv_basis;
      oldest = 1;
      next = population + 1;
      spans;
      revoke_span = Span.register spans "controller.revoke";
      submit_span = Span.register spans "controller.submit";
      round_span = Span.register spans "controller.round";
    }
  in
  for tenant = 1 to population do
    submit st tenant
  done;
  drain ctl ~rounds:50;
  if unplaced ctl <> [] then failwith "fleet-round: the fleet did not converge during set-up";
  st

let op st _ =
  Span.enter st.spans st.revoke_span;
  F.revoke st.ctl ~tenant:st.oldest;
  Span.leave st.spans;
  st.oldest <- st.oldest + 1;
  Span.enter st.spans st.submit_span;
  submit st st.next;
  Span.leave st.spans;
  st.next <- st.next + 1;
  Span.enter st.spans st.round_span;
  F.round st.ctl;
  Span.leave st.spans;
  true

(* after the drain rounds, every registered tenant is placed on exactly
   one host fleet-wide, as the hosts' own managers see it *)
let gate ~check:_ st =
  drain st.ctl ~rounds:20;
  let holders = Hashtbl.create 512 in
  List.iter
    (fun label ->
      match F.host st.ctl label with
      | None -> ()
      | Some h -> (
        match Ihnet.Host.manager h with
        | None -> ()
        | Some m -> List.iter (fun t -> Hashtbl.add holders t label) (M.Manager.tenants m)))
    (F.hosts st.ctl);
  let misplaced =
    List.filter_map
      (fun id ->
        match (F.tenant_view st.ctl id, Hashtbl.find_all holders id) with
        | Some (F.Placed h), [ h' ] when h = h' -> None
        | _, hs ->
          Some (Printf.sprintf "tenant %d is held by %d host(s), not placed once" id (List.length hs)))
      (F.tenants st.ctl)
  in
  let bad_decisions =
    List.filter_map
      (function
        | (F.D_command_failed _ | F.D_degraded _) as d -> Some (F.decision_to_string d)
        | _ -> None)
      (F.decisions st.ctl)
  in
  (misplaced @ bad_decisions, List.length misplaced)

(* the submitted rates are in the digest too: placement does not depend
   on them, so the fleet's own digests would not show a change in the
   inputs *)
let digest st =
  Printf.sprintf "fleet=%016Lx decisions=%016Lx inputs=%016Lx" (F.digest st.ctl)
    (F.decisions_fingerprint st.ctl) st.inputs

let counters st =
  let reallocs =
    List.fold_left
      (fun acc label ->
        match F.host st.ctl label with
        | Some h -> acc + Ihnet_engine.Fabric.reallocations (Ihnet.Host.fabric h)
        | None -> acc)
      0 (F.hosts st.ctl)
  in
  [
    ("decisions", float_of_int (List.length (F.decisions st.ctl)));
    ("host_reallocs", float_of_int reallocs);
  ]

let layer ~ops ~delta =
  [
    ("controller.decisions_per_op", delta "decisions" /. ops);
    ("fleet.host_reallocs_per_op", delta "host_reallocs" /. ops);
  ]

(* an op takes about 20 ms and a set-up 20 ms *)
let workload =
  {
    Harness.rate = 56.0;
    warmup = 30;
    setups = 11;
    probe_every = 1;
    setup;
    teardown = ignore;
    op;
    gate;
    digest;
    counters;
    layer;
  }
