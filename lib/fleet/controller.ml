module U = Ihnet_util
module Units = U.Units
module Rng = U.Rng
module Pool = U.Pool
module M = Ihnet_manager
module Mon = Ihnet_monitor
module Chanfault = Ihnet_engine.Chanfault
module Scanport = Ihnet_record.Scanport
module Trace = Ihnet_record.Trace
module Int_set = Set.Make (Int)

type config = {
  round_len : Units.ns;
  cmd_timeout : int;
  max_retries : int;
  backoff_factor : float;
  unreachable_after : int;
  flap_window : int;
  flap_threshold : int;
  holddown : int;
  degraded_retry : int;
}

let default_config =
  {
    round_len = Units.ms 1.0;
    cmd_timeout = 2;
    max_retries = 4;
    backoff_factor = 2.0;
    unreachable_after = 3;
    flap_window = 20;
    flap_threshold = 4;
    holddown = 10;
    degraded_retry = 5;
  }

type host_view = Reachable | Unreachable | Crashed

type tenant_view =
  | Unplaced
  | Placing of string
  | Placed of string
  | Migrating of { from_ : string; to_ : string }
  | Fleet_degraded

type reason = Host_down | Slo | Admission

type decision =
  | D_placed of { tenant : int; host : string }
  | D_migrated of { tenant : int; from_ : string; to_ : string; reason : reason }
  | D_degraded of { tenant : int; cause : M.Mgr_error.t }
  | D_restored of { tenant : int; host : string }
  | D_host_lost of { host : string }
  | D_host_recovered of { host : string }
  | D_held_down of { host : string }
  | D_reconciled of { host : string; revoked : int list }
  | D_command_failed of { host : string; tenant : int; error : M.Mgr_error.t }

let reason_to_string = function
  | Host_down -> "host-down"
  | Slo -> "slo"
  | Admission -> "admission"

let decision_to_string = function
  | D_placed { tenant; host } -> Printf.sprintf "place tenant %d on %s" tenant host
  | D_migrated { tenant; from_; to_; reason } ->
    Printf.sprintf "migrate tenant %d %s -> %s (%s)" tenant from_ to_ (reason_to_string reason)
  | D_degraded { tenant; cause } ->
    Printf.sprintf "fleet-degrade tenant %d: %s" tenant (M.Mgr_error.to_string cause)
  | D_restored { tenant; host } -> Printf.sprintf "restore tenant %d on %s" tenant host
  | D_host_lost { host } -> Printf.sprintf "host %s lost" host
  | D_host_recovered { host } -> Printf.sprintf "host %s recovered" host
  | D_held_down { host } -> Printf.sprintf "hold down flapping host %s" host
  | D_reconciled { host; revoked } ->
    Printf.sprintf "reconcile %s: revoke stray tenant(s) %s" host
      (String.concat "," (List.map string_of_int revoked))
  | D_command_failed { host; tenant; error } ->
    Printf.sprintf "command to %s for tenant %d failed: %s" host tenant
      (M.Mgr_error.to_string error)

(* {1 Wire messages} *)

type cmd_body = Cplace of M.Intent.t | Crevoke of int

let cmd_name = function Cplace _ -> "place" | Crevoke _ -> "revoke"

type command = { c_seq : int; c_epoch : int; c_body : cmd_body }
type ack = { a_seq : int; a_result : (unit, M.Mgr_error.t) result }

type report = {
  r_round : int;
  r_epoch : int;
  r_placed : int list;  (** Tenants with live placements, ascending. *)
  r_sick : int list;  (** Tenants with a violated SLO, ascending. *)
  r_degraded : int;
  r_violated : int;
}

type uplink = Ack of ack | Report of report

(* {1 Records} *)

type hosted = {
  h_label : string;
  h_index : int;
  h_preset : Ihnet.Host.preset option;  (* None = enrolled via add_host *)
  mutable h_host : Ihnet.Host.t option;  (* None while crashed *)
  h_cmd : command Channel.t;  (* controller -> host *)
  h_up : uplink Channel.t;  (* host -> controller *)
  h_applied : (int, (unit, M.Mgr_error.t) result) Hashtbl.t;
      (* at-most-once stable storage: seq -> outcome, survives restart *)
  h_revoked : (int, int) Hashtbl.t;  (* tenant -> round of last cleanup revoke *)
  h_rng : Rng.t;  (* the host's own stream: restart seeds *)
  mutable h_epoch : int;  (* actual incarnation (host-side truth) *)
  mutable h_known_epoch : int;  (* controller's belief *)
  mutable h_belief : [ `Reachable | `Unreachable ];
  mutable h_last_report : int;
  mutable h_flaps : int list;  (* rounds of belief transitions, newest first *)
  mutable h_held_until : int;
  mutable h_base_fault : Chanfault.fault;
  mutable h_partitioned : bool;
  mutable h_last_slo : int * int;  (* (degraded, violated) from last report *)
  mutable h_sick : int list;
  mutable h_placed : Int_set.t;  (* tenants whose state is [Placed] here; see [set_state] *)
}

type tenant = {
  tn_id : int;
  tn_intent : M.Intent.t;
  mutable tn_state : tenant_view;
  mutable tn_prev : string option;  (* origin of a pending move, for the decision *)
  mutable tn_reason : reason option;
  mutable tn_was_degraded : bool;
  mutable tn_tried : int list;  (* host indexes refused during this attempt *)
  mutable tn_since : int;  (* round of the last successful placement ack *)
  mutable tn_retry_at : int;
  mutable tn_gone : bool;  (* operator revoked *)
}

type purpose = Primary | Cleanup

type inflight = {
  if_seq : int;
  if_host : int;
  if_tenant : int;
  if_body : cmd_body;
  if_purpose : purpose;
  mutable if_attempt : int;
  mutable if_deadline : int;
}

type t = {
  cfg : config;
  seed : int;
  domains : int;  (* pool width for the host-shard phase *)
  mutable harr : hosted array;
  mutable nhosts : int;
  host_by_label : (string, int) Hashtbl.t;
  tenant_tbl : (int, tenant) Hashtbl.t;
  mutable tenant_order : int list;  (* ascending ids *)
  mutable round_no : int;
  mutable next_seq : int;
  inflight : (int, inflight) Hashtbl.t;
  mutable log : decision list;  (* newest first *)
  mutable fp : int64;
}

let create ?(config = default_config) ?(seed = 42) ?domains () =
  {
    cfg = config;
    seed;
    domains = (match domains with Some d -> max 1 d | None -> Pool.default_domains ());
    harr = [||];
    nhosts = 0;
    host_by_label = Hashtbl.create 64;
    tenant_tbl = Hashtbl.create 64;
    tenant_order = [];
    round_no = 0;
    next_seq = 0;
    inflight = Hashtbl.create 17;
    log = [];
    fp = Trace.fnv_basis;
  }

let record t d =
  t.log <- d :: t.log;
  t.fp <- Trace.fnv_string (Trace.fnv_int t.fp t.round_no) (decision_to_string d)

let get t label =
  match Hashtbl.find_opt t.host_by_label label with
  | Some i -> t.harr.(i)
  | None -> invalid_arg (Printf.sprintf "Fleet.Controller: unknown host %S" label)

(* {1 Membership} *)

let enroll t label preset host_opt =
  if Hashtbl.mem t.host_by_label label then
    invalid_arg (Printf.sprintf "Fleet.Controller: duplicate host label %S" label);
  let i = t.nhosts in
  let h =
    {
      h_label = label;
      h_index = i;
      h_preset = preset;
      h_host = host_opt;
      h_cmd = Channel.create (Rng.stream t.seed ((3 * i) + 0));
      h_up = Channel.create (Rng.stream t.seed ((3 * i) + 1));
      h_applied = Hashtbl.create 17;
      h_revoked = Hashtbl.create 7;
      h_rng = Rng.stream t.seed ((3 * i) + 2);
      h_epoch = 0;
      h_known_epoch = 0;
      h_belief = `Reachable;
      h_last_report = t.round_no;
      h_flaps = [];
      h_held_until = 0;
      h_base_fault = Chanfault.none;
      h_partitioned = false;
      h_last_slo = (0, 0);
      h_sick = [];
      h_placed = Int_set.empty;
    }
  in
  if i = Array.length t.harr then begin
    let cap = max 8 (2 * Array.length t.harr) in
    let bigger = Array.make cap h in
    Array.blit t.harr 0 bigger 0 i;
    t.harr <- bigger
  end;
  t.harr.(i) <- h;
  t.nhosts <- i + 1;
  Hashtbl.replace t.host_by_label label i;
  h

(* 62 random bits -> a non-negative int seed for a host incarnation. *)
let draw_seed rng = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2)

let spawn t ?(preset = Ihnet.Host.Two_socket) label =
  (* the host's stream exists before the host so restart draws continue it *)
  let i = t.nhosts in
  let rng = Rng.stream t.seed ((3 * i) + 2) in
  let seed = draw_seed rng in
  let host = Ihnet.Host.create ~seed preset in
  let h = enroll t label (Some preset) (Some host) in
  (* keep the pre-advanced stream so the next incarnation draws fresh *)
  ignore (Rng.bits64 h.h_rng)

let add_host t ~label host = ignore (enroll t label None (Some host))

let hosts t = Array.to_list (Array.sub t.harr 0 t.nhosts) |> List.map (fun h -> h.h_label)
let host t label = (get t label).h_host

(* {1 Fault injection} *)

let effective_fault h =
  if h.h_partitioned then Chanfault.merge h.h_base_fault Chanfault.partition
  else h.h_base_fault

let refresh_fault h =
  Channel.set_fault h.h_cmd (effective_fault h);
  Channel.set_fault h.h_up (effective_fault h)

let crash t label =
  let h = get t label in
  h.h_host <- None;
  Channel.clear h.h_cmd;
  Channel.clear h.h_up

let restart t label =
  let h = get t label in
  if h.h_host <> None then
    invalid_arg (Printf.sprintf "Fleet.Controller: host %S is not crashed" label);
  match h.h_preset with
  | None -> invalid_arg (Printf.sprintf "Fleet.Controller: host %S was not spawned here" label)
  | Some preset ->
    h.h_epoch <- h.h_epoch + 1;
    let seed = draw_seed h.h_rng in
    h.h_host <- Some (Ihnet.Host.create ~seed preset)

let partition t label =
  let h = get t label in
  h.h_partitioned <- true;
  refresh_fault h

let heal t label =
  let h = get t label in
  h.h_partitioned <- false;
  refresh_fault h

let set_chanfault t label fault =
  let h = get t label in
  h.h_base_fault <- fault;
  refresh_fault h

(* {1 Desired state} *)

let submit t intent =
  let id = intent.M.Intent.tenant in
  if Hashtbl.mem t.tenant_tbl id then
    invalid_arg (Printf.sprintf "Fleet.Controller: tenant %d already registered" id);
  Hashtbl.replace t.tenant_tbl id
    {
      tn_id = id;
      tn_intent = intent;
      tn_state = Unplaced;
      tn_prev = None;
      tn_reason = None;
      tn_was_degraded = false;
      tn_tried = [];
      tn_since = 0;
      tn_retry_at = 0;
      tn_gone = false;
    };
  t.tenant_order <- List.sort compare (id :: t.tenant_order)

let revoke t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | None -> ()
  | Some tn -> tn.tn_gone <- true

(* The per-host index of [Placed] tenants. Every [tn_state] change goes
   through [set_state] (and [remove_tenant]), so the index is exact at
   every instant: a per-round rebuild would not be, because an ack
   received earlier in the same receive phase can move a tenant to
   [Placed] on a host whose report comes later. *)
let update_placed t tn f =
  match tn.tn_state with
  | Placed l ->
    let h = get t l in
    h.h_placed <- f tn.tn_id h.h_placed
  | Unplaced | Placing _ | Migrating _ | Fleet_degraded -> ()

let set_state t tn s =
  update_placed t tn Int_set.remove;
  tn.tn_state <- s;
  update_placed t tn Int_set.add

let remove_tenant t id =
  Option.iter (fun tn -> update_placed t tn Int_set.remove) (Hashtbl.find_opt t.tenant_tbl id);
  Hashtbl.remove t.tenant_tbl id;
  t.tenant_order <- List.filter (fun x -> x <> id) t.tenant_order

let iter_tenants t f =
  List.iter
    (fun id -> match Hashtbl.find_opt t.tenant_tbl id with Some tn -> f tn | None -> ())
    t.tenant_order

(* Guaranteed bytes/s the controller believes it has routed to host
   [i]; make-before-break counts a migrating tenant on both ends. *)
let load_of t i =
  let lbl = t.harr.(i).h_label in
  let total = ref 0.0 in
  iter_tenants t (fun tn ->
      if not tn.tn_gone then
        let here =
          match tn.tn_state with
          | Placed l | Placing l -> l = lbl
          | Migrating { from_; to_ } -> from_ = lbl || to_ = lbl
          | Unplaced | Fleet_degraded -> false
        in
        if here then total := !total +. M.Intent.total_guaranteed tn.tn_intent);
  !total

let has_primary_inflight t id =
  Hashtbl.fold
    (fun _ inf acc -> acc || (inf.if_purpose = Primary && inf.if_tenant = id))
    t.inflight false

let has_cleanup_revoke t ~host ~tenant =
  Hashtbl.fold
    (fun _ inf acc ->
      acc
      || inf.if_purpose = Cleanup && inf.if_host = host && inf.if_tenant = tenant
         && match inf.if_body with Crevoke _ -> true | Cplace _ -> false)
    t.inflight false

let send_cmd t h purpose tenant body =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Hashtbl.replace t.inflight seq
    {
      if_seq = seq;
      if_host = h.h_index;
      if_tenant = tenant;
      if_body = body;
      if_purpose = purpose;
      if_attempt = 0;
      if_deadline = t.round_no + t.cfg.cmd_timeout;
    };
  Channel.send h.h_cmd { c_seq = seq; c_epoch = h.h_known_epoch; c_body = body }

let cleanup_revoke t h tenant =
  Hashtbl.replace h.h_revoked tenant t.round_no;
  send_cmd t h Cleanup tenant (Crevoke tenant)

(* {1 Phase 1: advance every live host and push its report}

   Parallel across the pool: each task owns exactly one host (its
   simulation, manager, SLO reports and uplink channel are all
   host-local), results merge by index, so the phase is byte-identical
   under any pool width or shard grouping. The SLO check only runs
   when the host actually carries placements — a dormant controller
   must not perturb an unmanaged host's float stream. *)

let observe_host host =
  match Ihnet.Host.manager host with
  | None -> ([], [], (0, 0))
  | Some mgr ->
    let placed = List.sort compare (M.Manager.tenants mgr) in
    if placed = [] then ([], [], (0, 0))
    else begin
      let rep = M.Slo.check mgr in
      let sick =
        List.filter_map
          (fun (e : M.Slo.entry) ->
            match e.M.Slo.state with
            | M.Slo.Violated _ -> Some e.M.Slo.placement.M.Placement.tenant
            | M.Slo.Inactive | M.Slo.Met | M.Slo.Degraded _ -> None)
          rep.M.Slo.entries
        |> List.sort_uniq compare
      in
      (placed, sick, (rep.M.Slo.degraded, rep.M.Slo.violations))
    end

let advance_and_report t =
  let n = t.nhosts in
  if n > 0 then begin
    let pool = Pool.get t.domains in
    ignore
      (Pool.map pool n (fun i ->
           let h = t.harr.(i) in
           match h.h_host with
           | None -> ()
           | Some host ->
             Ihnet.Host.run_for host t.cfg.round_len;
             let placed, sick, (deg, viol) = observe_host host in
             Channel.send h.h_up
               (Report
                  {
                    r_round = t.round_no;
                    r_epoch = h.h_epoch;
                    r_placed = placed;
                    r_sick = sick;
                    r_degraded = deg;
                    r_violated = viol;
                  })))
  end

(* {1 Phase 2: channel exchange (coordinator, host index order)} *)

let deliver_commands h =
  let arrived = Channel.tick h.h_cmd in
  match h.h_host with
  | None -> ()  (* crashed: arrivals hit a dead box *)
  | Some host ->
    List.iter
      (fun c ->
        if c.c_epoch = h.h_epoch then
          match Hashtbl.find_opt h.h_applied c.c_seq with
          | Some result ->
            (* duplicate: re-ack from stable storage, never re-apply *)
            Channel.send h.h_up (Ack { a_seq = c.c_seq; a_result = result })
          | None ->
            let result =
              match c.c_body with
              | Cplace intent -> (
                match Ihnet.Host.submit_intent host intent with
                | Ok _ -> Ok ()
                | Error e -> Error e)
              | Crevoke tenant -> (
                match Ihnet.Host.manager host with
                | Some mgr ->
                  M.Manager.revoke mgr ~tenant;
                  Ok ()
                | None -> Ok ())
            in
            Hashtbl.replace h.h_applied c.c_seq result;
            Channel.send h.h_up (Ack { a_seq = c.c_seq; a_result = result }))
      arrived

let note_flap t h =
  let cutoff = t.round_no - t.cfg.flap_window in
  h.h_flaps <- t.round_no :: List.filter (fun r -> r > cutoff) h.h_flaps;
  if List.length h.h_flaps >= t.cfg.flap_threshold && t.round_no >= h.h_held_until then begin
    h.h_held_until <- t.round_no + t.cfg.holddown;
    record t (D_held_down { host = h.h_label })
  end

let recently_revoked h tenant report_round =
  match Hashtbl.find_opt h.h_revoked tenant with
  | Some r -> report_round <= r
  | None -> false

(* Compare the host's claimed placements with the desired map: strays
   (tenants the controller failed over elsewhere during a partition)
   are revoked; desired tenants the host no longer carries (it
   restarted) go back to placement. *)
let reconcile t h r =
  let assigned_here tn =
    match tn.tn_state with
    | Placed l | Placing l -> l = h.h_label
    | Migrating { from_; to_ } -> from_ = h.h_label || to_ = h.h_label
    | Unplaced | Fleet_degraded -> false
  in
  let strays =
    List.filter
      (fun id ->
        (match Hashtbl.find_opt t.tenant_tbl id with
        | Some tn -> not (assigned_here tn)
        | None -> true)
        && (not (recently_revoked h id r.r_round))
        && not (has_cleanup_revoke t ~host:h.h_index ~tenant:id))
      r.r_placed
  in
  if strays <> [] then begin
    record t (D_reconciled { host = h.h_label; revoked = strays });
    List.iter (fun id -> cleanup_revoke t h id) strays
  end;
  (* only this host's Placed tenants, ascending: O(placed here) per report *)
  Int_set.iter
    (fun id ->
      let tn = Hashtbl.find t.tenant_tbl id in
      if (not (List.mem id r.r_placed)) && tn.tn_since < r.r_round then begin
        (* the host restarted and lost it: fail over *)
        set_state t tn Unplaced;
        tn.tn_prev <- Some h.h_label;
        tn.tn_reason <- Some Host_down;
        tn.tn_tried <- []
      end)
    h.h_placed

let on_report t h r =
  if r.r_epoch > h.h_known_epoch then h.h_known_epoch <- r.r_epoch;
  h.h_last_report <- max h.h_last_report r.r_round;
  h.h_last_slo <- (r.r_degraded, r.r_violated);
  h.h_sick <- r.r_sick;
  if h.h_belief = `Unreachable then begin
    h.h_belief <- `Reachable;
    record t (D_host_recovered { host = h.h_label });
    note_flap t h
  end;
  reconcile t h r

let placement_confirmed t h tn =
  let was_degraded = tn.tn_was_degraded in
  let prev = tn.tn_prev in
  set_state t tn (Placed h.h_label);
  tn.tn_since <- t.round_no;
  tn.tn_tried <- [];
  tn.tn_was_degraded <- false;
  let d =
    if was_degraded then D_restored { tenant = tn.tn_id; host = h.h_label }
    else
      match prev with
      | Some from_ when from_ <> h.h_label ->
        D_migrated
          {
            tenant = tn.tn_id;
            from_;
            to_ = h.h_label;
            reason = Option.value tn.tn_reason ~default:Admission;
          }
      | _ -> D_placed { tenant = tn.tn_id; host = h.h_label }
  in
  tn.tn_prev <- None;
  tn.tn_reason <- None;
  record t d

let on_ack t h a =
  match Hashtbl.find_opt t.inflight a.a_seq with
  | None -> ()  (* stale: the command was abandoned; reconciliation owns it now *)
  | Some inf -> (
    Hashtbl.remove t.inflight a.a_seq;
    match inf.if_purpose with
    | Cleanup -> ()
    | Primary -> (
      match Hashtbl.find_opt t.tenant_tbl inf.if_tenant with
      | None -> ()
      | Some tn -> (
        match (inf.if_body, a.a_result) with
        | Crevoke _, _ -> remove_tenant t tn.tn_id
        | Cplace _, Ok () -> (
          match tn.tn_state with
          | Placing l when l = h.h_label -> placement_confirmed t h tn
          | Migrating { from_; to_ } when to_ = h.h_label ->
            placement_confirmed t h tn;
            (* break after make: drop the old copy *)
            (match Hashtbl.find_opt t.host_by_label from_ with
            | Some fi when fi <> h.h_index -> cleanup_revoke t t.harr.(fi) tn.tn_id
            | _ -> ())
          | _ ->
            (* the plan moved on while this ack was in flight: the
               placement landed but is no longer wanted here *)
            cleanup_revoke t h tn.tn_id)
        | Cplace _, Error _ -> (
          (* admission refused: spill to the next candidate *)
          tn.tn_tried <- inf.if_host :: tn.tn_tried;
          match tn.tn_state with
          | Placing l when l = h.h_label -> set_state t tn Unplaced
          | Migrating { from_; to_ } when to_ = h.h_label ->
            (* the better host refused; stay where we are and cool down *)
            set_state t tn (Placed from_);
            tn.tn_prev <- None;
            tn.tn_reason <- None;
            tn.tn_retry_at <- t.round_no + t.cfg.degraded_retry
          | _ -> ()))))

let receive t h =
  List.iter
    (function Report r -> on_report t h r | Ack a -> on_ack t h a)
    (Channel.tick h.h_up)

(* {1 Phase 3: control (coordinator)} *)

let sorted_inflight t =
  Hashtbl.fold (fun seq _ acc -> seq :: acc) t.inflight [] |> List.sort compare

let abandon_host t h =
  List.iter
    (fun seq ->
      match Hashtbl.find_opt t.inflight seq with
      | Some inf when inf.if_host = h.h_index ->
        Hashtbl.remove t.inflight seq;
        if inf.if_purpose = Primary then
          record t
            (D_command_failed
               {
                 host = h.h_label;
                 tenant = inf.if_tenant;
                 error = M.Mgr_error.Host_unreachable h.h_label;
               })
      | _ -> ())
    (sorted_inflight t)

let fail_over_tenants t h =
  iter_tenants t (fun tn ->
      match tn.tn_state with
      | Placed l when l = h.h_label ->
        set_state t tn Unplaced;
        tn.tn_prev <- Some l;
        tn.tn_reason <- Some Host_down;
        tn.tn_tried <- [ h.h_index ]
      | Placing l when l = h.h_label ->
        set_state t tn Unplaced;
        tn.tn_tried <- h.h_index :: tn.tn_tried
      | Migrating { from_; to_ } when to_ = h.h_label ->
        set_state t tn (Placed from_);
        tn.tn_prev <- None;
        tn.tn_reason <- None
      | _ -> ())

let check_reachability t =
  for i = 0 to t.nhosts - 1 do
    let h = t.harr.(i) in
    if h.h_belief = `Reachable && t.round_no - h.h_last_report > t.cfg.unreachable_after
    then begin
      h.h_belief <- `Unreachable;
      record t (D_host_lost { host = h.h_label });
      note_flap t h;
      abandon_host t h;
      fail_over_tenants t h
    end
  done

let retry_commands t =
  List.iter
    (fun seq ->
      match Hashtbl.find_opt t.inflight seq with
      | None -> ()
      | Some inf ->
        if t.round_no >= inf.if_deadline then begin
          let h = t.harr.(inf.if_host) in
          if inf.if_attempt >= t.cfg.max_retries then begin
            Hashtbl.remove t.inflight seq;
            record t
              (D_command_failed
                 {
                   host = h.h_label;
                   tenant = inf.if_tenant;
                   error =
                     M.Mgr_error.Retries_exhausted
                       { host = h.h_label; command = cmd_name inf.if_body };
                 });
            if inf.if_purpose = Primary then
              match Hashtbl.find_opt t.tenant_tbl inf.if_tenant with
              | None -> ()
              | Some tn -> (
                match (inf.if_body, tn.tn_state) with
                | Cplace _, Placing l when l = h.h_label ->
                  set_state t tn Unplaced;
                  tn.tn_tried <- inf.if_host :: tn.tn_tried
                | Cplace _, Migrating { from_; to_ } when to_ = h.h_label ->
                  set_state t tn (Placed from_);
                  tn.tn_prev <- None;
                  tn.tn_reason <- None;
                  tn.tn_retry_at <- t.round_no + t.cfg.degraded_retry
                | Crevoke _, _ -> remove_tenant t tn.tn_id
                | _ -> ())
          end
          else begin
            inf.if_attempt <- inf.if_attempt + 1;
            let wait =
              int_of_float
                (ceil
                   (float_of_int t.cfg.cmd_timeout
                   *. (t.cfg.backoff_factor ** float_of_int inf.if_attempt)))
            in
            inf.if_deadline <- t.round_no + max 1 wait;
            Channel.send h.h_cmd
              { c_seq = seq; c_epoch = h.h_known_epoch; c_body = inf.if_body }
          end
        end)
    (sorted_inflight t)

(* The believed load of every host, computed once per control step
   (O(hosts + tenants)) and updated incrementally as placements are
   routed within the same pass — [load_of] per candidate would make
   each drive pass O(hosts × tenants) and fleet-scale rounds cubic. *)
let compute_loads t =
  let loads = Array.make (max 1 t.nhosts) 0.0 in
  let add lbl g =
    match Hashtbl.find_opt t.host_by_label lbl with
    | Some i -> loads.(i) <- loads.(i) +. g
    | None -> ()
  in
  iter_tenants t (fun tn ->
      if not tn.tn_gone then
        let g = M.Intent.total_guaranteed tn.tn_intent in
        match tn.tn_state with
        | Placed l | Placing l -> add l g
        | Migrating { from_; to_ } ->
          add from_ g;
          add to_ g
        | Unplaced | Fleet_degraded -> ());
  loads

let candidates t tn ~loads ~exclude =
  let rec collect i acc =
    if i < 0 then acc
    else
      let h = t.harr.(i) in
      let ok =
        h.h_belief = `Reachable
        && t.round_no >= h.h_held_until
        && (not (List.mem i tn.tn_tried))
        && not (List.mem i exclude)
      in
      collect (i - 1) (if ok then i :: acc else acc)
  in
  collect (t.nhosts - 1) []
  |> List.map (fun i -> (loads.(i), i))
  |> List.sort compare |> List.map snd

let try_place t tn ~loads =
  match candidates t tn ~loads ~exclude:[] with
  | [] ->
    if tn.tn_state <> Fleet_degraded then begin
      set_state t tn Fleet_degraded;
      tn.tn_was_degraded <- true;
      record t
        (D_degraded
           { tenant = tn.tn_id; cause = M.Mgr_error.No_feasible_host { tenant = tn.tn_id } })
    end;
    tn.tn_tried <- [];
    tn.tn_retry_at <- t.round_no + t.cfg.degraded_retry
  | i :: _ ->
    let h = t.harr.(i) in
    set_state t tn (Placing h.h_label);
    loads.(i) <- loads.(i) +. M.Intent.total_guaranteed tn.tn_intent;
    send_cmd t h Primary tn.tn_id (Cplace tn.tn_intent)

let try_migrate t tn from_label ~loads =
  let from_i = Hashtbl.find t.host_by_label from_label in
  match candidates t tn ~loads ~exclude:[ from_i ] with
  | [] -> tn.tn_retry_at <- t.round_no + t.cfg.degraded_retry
  | i :: _ ->
    let h = t.harr.(i) in
    set_state t tn (Migrating { from_ = from_label; to_ = h.h_label });
    tn.tn_prev <- Some from_label;
    tn.tn_reason <- Some Slo;
    loads.(i) <- loads.(i) +. M.Intent.total_guaranteed tn.tn_intent;
    send_cmd t h Primary tn.tn_id (Cplace tn.tn_intent)

let drive_tenants t =
  let loads = compute_loads t in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.tenant_tbl id with
      | None -> ()
      | Some tn ->
        if tn.tn_gone then begin
          match tn.tn_state with
          | Unplaced | Fleet_degraded -> remove_tenant t id
          | Placed l when not (has_primary_inflight t id) ->
            let h = get t l in
            if h.h_belief = `Reachable then send_cmd t h Primary id (Crevoke id)
            else (
              (* the host is gone; drop the desire and let
                 reconciliation revoke the stray when it reappears *)
              remove_tenant t id)
          | _ -> ()
        end
        else if not (has_primary_inflight t id) then
          match tn.tn_state with
          | Unplaced -> try_place t tn ~loads
          | Fleet_degraded when t.round_no >= tn.tn_retry_at ->
            tn.tn_tried <- [];
            try_place t tn ~loads
          | Placed l when t.round_no >= tn.tn_retry_at ->
            let h = get t l in
            if h.h_belief = `Reachable && List.mem id h.h_sick then try_migrate t tn l ~loads
          | _ -> ())
    t.tenant_order

let round t =
  t.round_no <- t.round_no + 1;
  advance_and_report t;
  for i = 0 to t.nhosts - 1 do
    deliver_commands t.harr.(i)
  done;
  for i = 0 to t.nhosts - 1 do
    receive t t.harr.(i)
  done;
  check_reachability t;
  retry_commands t;
  drive_tenants t

let run t ~rounds =
  for _ = 1 to rounds do
    round t
  done

let rounds t = t.round_no

(* {1 Observation} *)

let host_view t label =
  match Hashtbl.find_opt t.host_by_label label with
  | None -> None
  | Some i ->
    let h = t.harr.(i) in
    Some
      (if h.h_host = None then Crashed
       else match h.h_belief with `Reachable -> Reachable | `Unreachable -> Unreachable)

let tenant_view t id =
  Option.map (fun tn -> tn.tn_state) (Hashtbl.find_opt t.tenant_tbl id)

let tenants t = t.tenant_order
let decisions t = List.rev t.log
let decisions_fingerprint t = t.fp

let digest t =
  let d = ref Trace.fnv_basis in
  for i = 0 to t.nhosts - 1 do
    match t.harr.(i).h_host with
    | None -> d := Trace.fnv_string !d "crashed"
    | Some host -> d := Trace.fnv_int64 !d (Ihnet.Host.scan_summary host).Scanport.sm_digest
  done;
  !d

let host_digests t =
  let acc = ref [] in
  for i = t.nhosts - 1 downto 0 do
    match t.harr.(i).h_host with
    | None -> ()
    | Some host ->
      acc := (t.harr.(i).h_label, (Ihnet.Host.scan_summary host).Scanport.sm_digest) :: !acc
  done;
  !acc

let channel_rng_peek t label =
  let h = get t label in
  Trace.fnv_int64
    (Trace.fnv_int64 Trace.fnv_basis (Channel.rng_peek h.h_cmd))
    (Channel.rng_peek h.h_up)

let collect t =
  let members = ref [] in
  for i = t.nhosts - 1 downto 0 do
    let h = t.harr.(i) in
    match h.h_host with
    | None -> ()
    | Some host ->
      let fab = Ihnet.Host.fabric host in
      members :=
        {
          Mon.Fleet.label = h.h_label;
          counter = Mon.Counter.create fab ~fidelity:Mon.Counter.Software;
          tenants = Int_set.elements h.h_placed;
          slo = Some (fun () -> h.h_last_slo);
        }
        :: !members
  done;
  Mon.Fleet.collect ~round:t.round_no !members

let pp ppf t =
  let reach = ref 0 and unreach = ref 0 and crashed = ref 0 in
  for i = 0 to t.nhosts - 1 do
    let h = t.harr.(i) in
    if h.h_host = None then incr crashed
    else match h.h_belief with `Reachable -> incr reach | `Unreachable -> incr unreach
  done;
  Format.fprintf ppf
    "fleet: %d host(s) (%d reachable, %d unreachable, %d crashed), %d tenant(s), round %d, %d decision(s)@."
    t.nhosts !reach !unreach !crashed
    (List.length t.tenant_order)
    t.round_no (List.length t.log);
  for i = 0 to t.nhosts - 1 do
    let h = t.harr.(i) in
    let state =
      if h.h_host = None then "crashed"
      else match h.h_belief with `Reachable -> "reachable" | `Unreachable -> "unreachable"
    in
    Format.fprintf ppf "  %-16s %-11s epoch=%d load=%a tenants=[%s]@." h.h_label state
      h.h_epoch Units.pp_rate (load_of t i)
      (String.concat "," (List.map string_of_int (Int_set.elements h.h_placed)))
  done;
  iter_tenants t (fun tn ->
      let state =
        match tn.tn_state with
        | Unplaced -> "unplaced"
        | Placing l -> Printf.sprintf "placing on %s" l
        | Placed l -> Printf.sprintf "placed on %s" l
        | Migrating { from_; to_ } -> Printf.sprintf "migrating %s -> %s" from_ to_
        | Fleet_degraded -> "fleet-degraded"
      in
      Format.fprintf ppf "  tenant %d: %s@." tn.tn_id state)
