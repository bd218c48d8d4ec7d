module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module Fault = Ihnet_engine.Fault
module T = Ihnet_topology
module U = Ihnet_util

type stage = Rearbitrate | Replace | Degrade

type status = Suspected | Remediating | Held_down | Resolved | Exhausted

type case = {
  link : T.Link.id;
  mutable status : status;
  mutable stage : stage;
  mutable attempts : int; (* within the current stage *)
  mutable detected_at : U.Units.ns;
  mutable recovered_at : U.Units.ns option;
  mutable next_due : U.Units.ns;
  mutable held_until : U.Units.ns;
  mutable transitions : U.Units.ns list; (* recent fault toggles, newest first *)
  mutable degraded_ids : int list; (* placements whose floor this case shrank *)
  mutable total_actions : int;
  mutable gate_waits : int; (* consecutive ticks blocked awaiting corroboration *)
}

type action = {
  at : U.Units.ns;
  action_link : T.Link.id;
  action_stage : stage;
  detail : string;
  impact : bool; (* true = fabric/placement state changed; false = a note *)
}

type config = {
  period : U.Units.ns;
  max_attempts : int;
  base_backoff : U.Units.ns;
  backoff_factor : float;
  flap_window : U.Units.ns;
  flap_threshold : int;
  holddown : U.Units.ns;
  suspect_score : float;
  degrade_step : float;
  min_floor_scale : float;
  use_fault_events : bool;
  migration_budget : float;
  migration_refill : U.Units.ns;
}

let default_config =
  {
    period = U.Units.us 200.0;
    max_attempts = 2;
    base_backoff = U.Units.us 500.0;
    backoff_factor = 2.0;
    flap_window = U.Units.ms 5.0;
    flap_threshold = 4;
    holddown = U.Units.ms 10.0;
    suspect_score = 0.5;
    degrade_step = 0.5;
    min_floor_scale = 0.1;
    use_fault_events = true;
    (* generous by default: the limiter is a thrash backstop, not a
       brake on ordinary single-fault remediation *)
    migration_budget = 32.0;
    migration_refill = U.Units.us 250.0;
  }

type t = {
  mgr : Manager.t;
  fabric : Fabric.t;
  config : config;
  mutable cases : case list; (* insertion order *)
  mutable sources : (string * (unit -> (T.Link.id * float) list)) list;
  mutable history : action list; (* newest first *)
  mutable running : bool;
  mutable gen : int; (* stamps tick chains so stale ones self-cancel *)
  mutable observers : (action -> unit) list; (* registration order *)
  mutable gate : (T.Link.id -> [ `Unknown | `Suspected of float | `Corroborated of float ]) option;
  mutable tokens : float; (* migration token bucket (Replace/Degrade) *)
  mutable last_refill : U.Units.ns;
}

(* Same slack the SLO checker grants: absorbs fluid-model rounding. *)
let tolerance = 0.99

let case_for t link = List.find_opt (fun c -> c.link = link) t.cases

let open_case t link =
  let now = Fabric.now t.fabric in
  match case_for t link with
  | Some c ->
    (* A resolved (or exhausted) case that gets re-detected reopens from
       the top of the escalation ladder with a fresh detection stamp;
       an in-flight case just keeps going. *)
    if c.status = Resolved || c.status = Exhausted then begin
      c.status <- Suspected;
      c.stage <- Rearbitrate;
      c.attempts <- 0;
      c.detected_at <- now;
      c.recovered_at <- None;
      c.next_due <- now
    end;
    c
  | None ->
    let c =
      {
        link;
        status = Suspected;
        stage = Rearbitrate;
        attempts = 0;
        detected_at = now;
        recovered_at = None;
        next_due = now;
        held_until = 0.0;
        transitions = [];
        degraded_ids = [];
        total_actions = 0;
        gate_waits = 0;
      }
    in
    t.cases <- t.cases @ [ c ];
    c

(* Fault events are the cheap detector: the operator announced the
   fault, so the case opens at once. The same transitions feed flap
   damping. Heavy work (re-arbitration, migration) stays out of the
   fabric's synchronous dispatch and runs on the next supervisor tick. *)
let on_fabric_event t = function
  | Fabric.Fault_injected (link, _) ->
    if t.config.use_fault_events then begin
      let c = open_case t link in
      c.transitions <- Fabric.now t.fabric :: c.transitions
    end
    else begin
      (* Operator announcements ignored as a detector (to exercise the
         monitor-driven path), but toggles still feed flap damping of
         cases some detector already opened. *)
      match case_for t link with
      | None -> ()
      | Some c -> c.transitions <- Fabric.now t.fabric :: c.transitions
    end
  | Fabric.Fault_cleared link -> (
    match case_for t link with
    | None -> ()
    | Some c -> c.transitions <- Fabric.now t.fabric :: c.transitions)
  | Fabric.Flow_started _ | Fabric.Flow_completed _ | Fabric.Flow_stopped _
  | Fabric.Limits_changed _ | Fabric.Config_changed _ | Fabric.Reallocated _
  | Fabric.All_faults_cleared | Fabric.Batch_started | Fabric.Batch_ended | Fabric.Synced
  | Fabric.Sensor_fault_injected _ | Fabric.Sensor_fault_cleared _ -> ()

let create ?(config = default_config) mgr =
  let t =
    {
      mgr;
      fabric = Manager.fabric mgr;
      config;
      cases = [];
      sources = [];
      history = [];
      running = false;
      gen = 0;
      observers = [];
      gate = None;
      tokens = config.migration_budget;
      last_refill = 0.0;
    }
  in
  Fabric.subscribe t.fabric (on_fabric_event t);
  t

let add_source t ~name f = t.sources <- t.sources @ [ (name, f) ]

let set_gate t g = t.gate <- Some g

let on_action t f = t.observers <- t.observers @ [ f ]

let record ?(impact = false) t c detail =
  c.total_actions <- c.total_actions + 1;
  let a =
    { at = Fabric.now t.fabric; action_link = c.link; action_stage = c.stage; detail; impact }
  in
  t.history <- a :: t.history;
  List.iter (fun f -> f a) t.observers

(* Victims: placements still routed over the suspect link whose running
   flows jointly receive less than the (possibly scaled-down) promise —
   or, for placements carrying a tail-latency bound, whose current path
   latency exceeds it. Latency victimhood is judged on the
   instantaneous estimate, not the cumulative sketch: the sketch
   remembers the breach forever (that is its job as a detector), while
   a case must resolve as soon as the migrated flows are actually fast
   again. A placement replaced onto another path, or with no live
   flows, is no longer this case's problem. *)
let victims t link =
  Fabric.refresh t.fabric;
  List.filter
    (fun (p : Placement.t) ->
      let flows =
        List.filter (fun (f : Flow.t) -> f.Flow.state = Flow.Running) p.Placement.attached
      in
      flows <> []
      &&
      let delivered = List.fold_left (fun a (f : Flow.t) -> a +. f.Flow.rate) 0.0 flows in
      let demanded =
        List.fold_left (fun a (f : Flow.t) -> a +. Flow.effective_demand f) 0.0 flows
      in
      let entitled = Float.min (p.Placement.rate *. p.Placement.floor_scale) demanded in
      let starved = delivered < entitled *. tolerance in
      let too_slow =
        match p.Placement.p99_bound with
        | None -> false
        | Some bound ->
          List.exists (fun (f : Flow.t) -> Fabric.flow_path_latency t.fabric f > bound) flows
      in
      starved || too_slow)
    (Manager.affected_placements t.mgr link)

(* The tail-latency detector (a {!add_source} source, wired by the host
   when the sketch plane is on): for every placement carrying a p99
   bound, sum the observed per-hop sketch p99 along its path; on a
   breach, suspect the hop contributing most, with confidence scaled by
   how far past the bound the tail sits. *)
let tail_latency_source mgr () =
  let fabric = Manager.fabric mgr in
  if not (Fabric.latency_sketches_enabled fabric) then []
  else
    List.fold_left
      (fun acc (p : Placement.t) ->
        match p.Placement.p99_bound with
        | None -> acc
        | Some bound ->
          let total = ref 0.0 and worst = ref (-1) and worst_p99 = ref 0.0 in
          List.iter
            (fun (h : T.Path.hop) ->
              match Fabric.link_latency_sketch fabric h.T.Path.link.T.Link.id h.T.Path.dir with
              | Some sk when U.Sketch.count sk > 0 ->
                let p99 = U.Sketch.percentile sk 0.99 in
                total := !total +. p99;
                if p99 > !worst_p99 then begin
                  worst_p99 := p99;
                  worst := h.T.Path.link.T.Link.id
                end
              | Some _ | None -> ())
            p.Placement.path.T.Path.hops;
          if !worst >= 0 && !total > bound then
            (!worst, Float.min 1.0 ((!total -. bound) /. bound)) :: acc
          else acc)
      []
      (Manager.placements mgr)

let backoff t (c : case) =
  t.config.base_backoff *. (t.config.backoff_factor ** float_of_int c.attempts)

let restore_degraded t c =
  if c.degraded_ids <> [] then begin
    List.iter
      (fun (p : Placement.t) ->
        if List.mem p.Placement.id c.degraded_ids then p.Placement.floor_scale <- 1.0)
      (Manager.placements t.mgr);
    c.degraded_ids <- [];
    Arbiter.refresh (Manager.arbiter t.mgr);
    record ~impact:true t c "restored full floors after fault cleared"
  end

let escalate c =
  match c.stage with
  | Rearbitrate ->
    c.stage <- Replace;
    c.attempts <- 0
  | Replace ->
    c.stage <- Degrade;
    c.attempts <- 0
  | Degrade -> ()

let status_label = function
  | Suspected -> "suspected"
  | Remediating -> "remediating"
  | Held_down -> "held-down"
  | Resolved -> "resolved"
  | Exhausted -> "exhausted"

let stage_label = function
  | Rearbitrate -> "re-arbitrate"
  | Replace -> "re-place"
  | Degrade -> "degrade"

let act t c vs =
  (match c.stage with
  | Rearbitrate ->
    Arbiter.refresh (Manager.arbiter t.mgr);
    record ~impact:true t c
      (Printf.sprintf "re-arbitrated floors/caps for %d victim placement(s)" (List.length vs))
  | Replace ->
    List.iter
      (fun (p : Placement.t) ->
        match Manager.replace_placement t.mgr ~avoid:[ c.link ] p with
        | Ok _ ->
          record ~impact:true t c
            (Printf.sprintf "re-placed t%d onto alternate path" p.Placement.tenant)
        | Error why ->
          record t c
            (Printf.sprintf "re-place t%d failed: %s" p.Placement.tenant
               (Mgr_error.to_string why)))
      vs
  | Degrade ->
    List.iter
      (fun (p : Placement.t) ->
        let scale =
          Float.max t.config.min_floor_scale (p.Placement.floor_scale *. t.config.degrade_step)
        in
        if scale < p.Placement.floor_scale then begin
          p.Placement.floor_scale <- scale;
          if not (List.mem p.Placement.id c.degraded_ids) then
            c.degraded_ids <- p.Placement.id :: c.degraded_ids;
          record ~impact:true t c
            (Printf.sprintf "degraded t%d floor to %.0f%% (explicit verdict)" p.Placement.tenant
               (scale *. 100.0))
        end)
      vs;
    Arbiter.refresh (Manager.arbiter t.mgr));
  c.attempts <- c.attempts + 1;
  c.next_due <- Fabric.now t.fabric +. backoff t c

(* Deterministic token bucket in simulated time: Replace/Degrade each
   burn one token; refill is linear up to the budget. Bounds migrations
   per window even when a corroborated quorum is itself lying. *)
let take_token t =
  let now = Fabric.now t.fabric in
  let dt = now -. t.last_refill in
  if dt > 0.0 then begin
    t.tokens <- Float.min t.config.migration_budget (t.tokens +. (dt /. t.config.migration_refill));
    t.last_refill <- now
  end;
  if t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    true
  end
  else false

(* The evidence gate. Re-arbitration is cheap and reversible, so
   single-source suspicion suffices; migration and explicit degradation
   move real state and require a corroborated verdict. No gate wired =
   every verdict corroborated (exact pre-gate behaviour). *)
let gate_verdict t c =
  match t.gate with
  | None -> `Corroborated 1.0
  | Some g -> (
    match c.stage with Rearbitrate -> `Corroborated 1.0 | Replace | Degrade -> g c.link)

let attempt t c vs =
  match gate_verdict t c with
  | `Unknown | `Suspected _ ->
    if c.gate_waits = 0 then
      record t c
        ("awaiting corroboration before " ^ stage_label c.stage ^ " (single-source suspicion)");
    c.gate_waits <- c.gate_waits + 1;
    c.next_due <- Fabric.now t.fabric +. t.config.period
  | `Corroborated _ ->
    if (c.stage = Replace || c.stage = Degrade) && not (take_token t) then begin
      record t c "migration rate limit: token bucket empty, deferring";
      c.next_due <- Fabric.now t.fabric +. t.config.migration_refill
    end
    else begin
      c.gate_waits <- 0;
      act t c vs
    end

let step_case t c =
  let now = Fabric.now t.fabric in
  (* Flap damping: too many fault transitions inside the window means
     the link is oscillating — acting on every toggle would thrash
     migrations, so the case holds down and waits the flapping out. *)
  c.transitions <- List.filter (fun ts -> now -. ts <= t.config.flap_window) c.transitions;
  if c.status = Held_down && now < c.held_until then ()
  else begin
    if c.status = Held_down then c.status <- Remediating;
    if
      List.length c.transitions >= t.config.flap_threshold
      && c.status <> Resolved && c.status <> Exhausted
    then begin
      c.status <- Held_down;
      c.held_until <- now +. t.config.holddown;
      record t c
        (Printf.sprintf "flap damping: %d transitions in window, holding down"
           (List.length c.transitions))
    end
    else begin
      (if Fabric.fault_of t.fabric c.link = Fault.healthy then restore_degraded t c);
      match c.status with
      | Resolved | Exhausted | Held_down -> ()
      | Suspected | Remediating -> (
        match victims t c.link with
        | [] ->
          c.status <- Resolved;
          if c.recovered_at = None then c.recovered_at <- Some now
        | vs ->
          c.status <- Remediating;
          if now >= c.next_due then
            if c.attempts < t.config.max_attempts then attempt t c vs
            else if c.stage <> Degrade then begin
              escalate c;
              attempt t c vs
            end
            else if
              (* the last stage keeps shrinking past its attempt budget
                 until every victim floor sits at the minimum scale —
                 only then is the ladder genuinely spent *)
              List.exists
                (fun (p : Placement.t) ->
                  p.Placement.floor_scale > t.config.min_floor_scale +. 1e-9)
                vs
            then attempt t c vs
            else begin
              c.status <- Exhausted;
              record t c "escalation exhausted: minimum floors still unmet"
            end)
    end
  end

let poll_sources t =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun (link, score) ->
          if score >= t.config.suspect_score then begin
            (* a closed case only reopens if someone is actually hurt
               again — a detector that keeps flagging a sick-but-routed-
               around link must not spin the resolved case forever *)
            let reopen_or_fresh =
              match case_for t link with
              | None -> true
              | Some c when c.status = Resolved || c.status = Exhausted -> victims t link <> []
              | Some _ -> false
            in
            if reopen_or_fresh then begin
              let c = open_case t link in
              record t c (Printf.sprintf "suspected by %s (score %.2f)" name score)
            end
          end)
        (f ()))
    t.sources

let tick t =
  poll_sources t;
  List.iter (step_case t) t.cases

let start t =
  if not t.running then begin
    t.running <- true;
    t.gen <- t.gen + 1;
    let gen = t.gen in
    let sim = Fabric.sim t.fabric in
    let rec loop _ =
      if t.running && gen = t.gen then begin
        tick t;
        Sim.schedule sim ~after:t.config.period loop
      end
    in
    Sim.schedule sim ~after:0.0 loop
  end

let stop t =
  t.running <- false;
  t.gen <- t.gen + 1

let cases t = t.cases
let actions t = List.rev t.history
let actions_count t = List.length t.history

let time_to_detect t link ~since =
  match case_for t link with
  | Some c when c.detected_at >= since -> Some (c.detected_at -. since)
  | _ -> None

let time_to_recover t link =
  match case_for t link with
  | Some c -> Option.map (fun r -> r -. c.detected_at) c.recovered_at
  | None -> None

let pp_status ppf t =
  Format.fprintf ppf "remediation: %d case(s), %d action(s)@." (List.length t.cases)
    (actions_count t);
  List.iter
    (fun c ->
      Format.fprintf ppf "  link %d: %s (stage %s, %d attempt(s), %d action(s))%s@." c.link
        (status_label c.status) (stage_label c.stage) c.attempts c.total_actions
        (match c.recovered_at with
        | Some r ->
          Format.asprintf " detected %a, recovered %a" U.Units.pp_time c.detected_at
            U.Units.pp_time r
        | None -> Format.asprintf " detected %a" U.Units.pp_time c.detected_at))
    t.cases

let pp_timeline ppf t =
  List.iter
    (fun a ->
      Format.fprintf ppf "  [%a] link %d %s: %s@." U.Units.pp_time a.at a.action_link
        (stage_label a.action_stage) a.detail)
    (actions t)
