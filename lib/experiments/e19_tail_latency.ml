(* E19 — tail-latency SLO intents over the always-on sketch plane.

   §3.2 wants intents richer than bandwidth floors: "predictable
   application performance" includes the latency tail, and the tail is
   invisible to both instantaneous estimates and averages. This
   experiment closes that loop end to end:

   - a pipe intent carries [p99_bound] alongside its rate guarantee;
   - the fabric's always-on latency sketches observe per-hop p99 as a
     request stream churns over the placement;
   - a silent extra-delay fault (capacity untouched — the bandwidth
     detectors see nothing) breaches the bound; the tail-latency
     detector suspects the worst hop and opens a remediation case;
   - re-placement migrates the victim off the slow link and the
     measured post-remediation p99 returns under the bound, while a
     no-remediation baseline stays in violation.

   The verdict p99 is measured with a LOCAL sketch fed from
   instantaneous path latency over each phase window: the fabric's own
   sketches are cumulative by design (they are the detector's memory),
   so they keep the breach visible forever and cannot attest recovery. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module R = Ihnet_manager
open Common

let victim_rate = U.Units.gbytes_per_s 10.0
let req_rate = U.Units.gbytes_per_s 1.0
let req_bytes = 10_000.0
let slice = U.Units.us 20.0

(* The idle one-way latency of the victim's route, measured before any
   load — the bound is set to 4x that, generous enough that queueing
   under the experiment's modest load never trips it on its own. *)
let idle_latency host =
  let fab = Ihnet.Host.fabric host in
  let topo = E.Fabric.topology fab in
  E.Fabric.path_latency fab (T.Routing.route topo "ext" "socket0")

let slo_label host =
  match Ihnet.Host.manager host with
  | None -> "-"
  | Some mgr ->
    let r = R.Slo.check mgr in
    if r.R.Slo.violations > 0 then "VIOLATED"
    else if r.R.Slo.degraded > 0 then "degraded (explicit)"
    else "met"

(* Drive a request stream over the placement's current route for [dur],
   sampling instantaneous path latency into a fresh local sketch each
   slice. Requests re-read [p.path] every slice, so after a migration
   they follow the new route — the reconnecting-client model. Each
   request start and completion is a reallocation epoch feeding the
   fabric's always-on sketches. *)
let drive host (p : R.Placement.t) ~dur =
  let fab = Ihnet.Host.fabric host in
  let sk = U.Sketch.create () in
  let n = max 1 (int_of_float (dur /. slice)) in
  for _ = 1 to n do
    ignore
      (E.Fabric.start_flow fab ~tenant:1 ~demand:req_rate ~path:p.R.Placement.path
         ~size:(E.Flow.Bytes req_bytes) ());
    Ihnet.Host.run_for host slice;
    U.Sketch.record sk (E.Fabric.path_latency fab p.R.Placement.path)
  done;
  sk

type outcome = {
  label : string;
  bound : U.Units.ns;
  pre : float;
  faulted : float;
  post : float;
  detect : U.Units.ns option;
  recover : U.Units.ns option;
  state_fault : string;
  state_post : string;
}

let run_scenario ~remediate =
  let host = fresh_host () in
  let bound = 4.0 *. idle_latency host in
  let wiring =
    {
      Ihnet.Host.default_wiring with
      Ihnet.Host.heartbeat = false;
      latency_sketches = true;
    }
  in
  let mgr = Ihnet.Host.enable_manager host ~wiring () in
  let p =
    match
      Ihnet.Host.submit_intent host
        {
          (R.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:victim_rate) with
          R.Intent.p99_bound = Some bound;
        }
    with
    | Ok [ p ] -> p
    | Ok _ -> failwith "E19: expected one placement"
    | Error e -> failwith ("E19: admission refused: " ^ R.Mgr_error.to_string e)
  in
  let f =
    E.Fabric.start_flow (Ihnet.Host.fabric host) ~tenant:1 ~demand:victim_rate
      ~path:p.R.Placement.path ~size:E.Flow.Unbounded ()
  in
  ignore (R.Manager.attach mgr f);
  let rem =
    if remediate then
      Some
        (Ihnet.Host.enable_remediation host
           ~config:
             { R.Remediation.default_config with R.Remediation.use_fault_events = false }
           ~wiring ())
    else None
  in
  let pre_sk = drive host p ~dur:(U.Units.ms 2.0) in
  let bad =
    (List.nth p.R.Placement.path.T.Path.hops 1).T.Path.link.T.Link.id
  in
  let t0 = Ihnet.Host.now host in
  (* capacity untouched: purely a latency fault, silent to bandwidth *)
  E.Fabric.inject_fault (Ihnet.Host.fabric host) bad
    (E.Fault.degrade ~capacity_factor:1.0 ~extra_latency:(20.0 *. bound) ());
  let fault_sk = drive host p ~dur:(U.Units.ms 2.0) in
  let state_fault = slo_label host in
  (* give the escalation ladder (re-arbitrate backoffs, then re-place)
     room to land, then measure a clean window: the verdict is about
     the steady state after the loop, not the migration transient *)
  ignore (drive host p ~dur:(U.Units.ms 6.0));
  let post_sk = drive host p ~dur:(U.Units.ms 6.0) in
  let state_post = slo_label host in
  {
    label = (if remediate then "tail SLO + remediation (re-place)" else "no remediation (baseline)");
    bound;
    pre = U.Sketch.percentile pre_sk 0.99;
    faulted = U.Sketch.percentile fault_sk 0.99;
    post = U.Sketch.percentile post_sk 0.99;
    detect = Option.bind rem (fun r -> R.Remediation.time_to_detect r bad ~since:t0);
    recover = Option.bind rem (fun r -> R.Remediation.time_to_recover r bad);
    state_fault;
    state_post;
  }

let run () =
  let remediated = run_scenario ~remediate:true in
  let baseline = run_scenario ~remediate:false in
  let table =
    U.Table.create ~title:"E19: tail-latency SLO — measured p99 per phase vs bound"
      ~columns:
        [ "scenario"; "p99 bound"; "pre"; "under fault"; "after loop"; "detect"; "recover"; "SLO" ]
  in
  let t v = Format.asprintf "%a" U.Units.pp_time v in
  let opt_time = function Some v -> t v | None -> "-" in
  List.iter
    (fun o ->
      U.Table.add_row table
        [
          o.label;
          t o.bound;
          t o.pre;
          t o.faulted;
          t o.post;
          opt_time o.detect;
          opt_time o.recover;
          Printf.sprintf "%s -> %s" o.state_fault o.state_post;
        ])
    [ remediated; baseline ];
  let ok =
    remediated.pre <= remediated.bound
    && remediated.faulted > remediated.bound
    && remediated.post <= remediated.bound
    && remediated.detect <> None
    && remediated.recover <> None
    && remediated.state_post = "met"
    && baseline.faulted > baseline.bound
    && baseline.post > baseline.bound
    && baseline.state_post = "VIOLATED"
  in
  {
    id = "E19";
    title = "tail-latency SLO intents over latency sketches";
    claim =
      "predictable performance includes the latency tail: a p99 bound in the intent, observed \
       by always-on sketches, detected and remediated like any other SLO violation";
    tables = [ table ];
    verdict =
      Printf.sprintf
        "latency-only fault breached the bound (p99 %s > %s) invisibly to bandwidth detectors; \
         sketch detector opened the case in %s and re-placement brought p99 back to %s (bound \
         %s) while the baseline stayed violated at %s — %s"
        (Format.asprintf "%a" U.Units.pp_time remediated.faulted)
        (Format.asprintf "%a" U.Units.pp_time remediated.bound)
        (match remediated.detect with
        | Some d -> Format.asprintf "%a" U.Units.pp_time d
        | None -> "(undetected)")
        (Format.asprintf "%a" U.Units.pp_time remediated.post)
        (Format.asprintf "%a" U.Units.pp_time remediated.bound)
        (Format.asprintf "%a" U.Units.pp_time baseline.post)
        (if ok then "matches the tail-latency management goal" else "MISMATCH");
  }
