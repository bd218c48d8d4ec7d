module E = Ihnet_engine
module M = Ihnet_manager
module T = Ihnet_topology

type divergence = {
  at : float;
  epoch : int;
  kind : string;
  detail : string;
  register : string option;
      (* first divergent scan register (path + values), when a scan
         reference was available for the divergent digest epoch *)
}

type report = {
  ops : int;
  digests_checked : int;
  completions_checked : int;
  divergences : int;
  first_divergence : divergence option;
  invariant_failures : string list;
  final_at : float;
}

let topology_of_preset preset config =
  match preset with
  | "two-socket-server" -> Ok (T.Builder.two_socket_server ~config ())
  | "dgx-like" -> Ok (T.Builder.dgx_like ~config ())
  | "epyc-like" -> Ok (T.Builder.epyc_like ~config ())
  | "minimal" -> Ok (T.Builder.minimal ~config ())
  | p -> Error (Printf.sprintf "unknown topology preset %S (trace not replayable)" p)

(* {1 Invariants} *)

let check_invariants ?manager fab =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let topo = E.Fabric.topology fab in
  (* no link loaded beyond its effective capacity (fluid rounding slack:
     1e-6 relative + 1 byte/s absolute) *)
  for l = 0 to T.Topology.link_count topo - 1 do
    List.iter
      (fun dir ->
        let cap = E.Fabric.effective_capacity fab l dir in
        let rate = E.Fabric.link_rate fab l dir in
        if rate > (cap *. (1.0 +. 1e-6)) +. 1.0 then
          fail "link %d/%s over capacity: %.6g > %.6g" l
            (T.Link.dir_label dir)
            rate cap)
      [ T.Link.Fwd; T.Link.Rev ]
  done;
  (* byte conservation for bounded running flows *)
  E.Fabric.refresh fab;
  List.iter
    (fun (f : E.Flow.t) ->
      match f.E.Flow.size with
      | E.Flow.Bytes size ->
        let total = f.E.Flow.transferred +. f.E.Flow.remaining in
        if Float.abs (total -. size) > (1e-6 *. size) +. 1.0 then
          fail "flow %d byte conservation: transferred+remaining=%.6g, size=%.6g" f.E.Flow.id
            total size
      | E.Flow.Unbounded ->
        if f.E.Flow.remaining <> infinity then
          fail "flow %d unbounded but remaining=%.6g" f.E.Flow.id f.E.Flow.remaining)
    (E.Fabric.active_flows fab);
  (* one completion key per running bounded flow with a positive rate *)
  let keyed = List.sort compare (List.map snd (E.Fabric.scan_completion_heap fab)) in
  let due =
    List.filter_map
      (fun (f : E.Flow.t) ->
        if f.E.Flow.remaining <> infinity && f.E.Flow.rate > 0.0 then Some f.E.Flow.id else None)
      (E.Fabric.active_flows fab)
  in
  if keyed <> due then begin
    let ids l = String.concat " " (List.map string_of_int l) in
    fail "completion keys held by flows [%s], but running bounded flows with a positive rate: [%s]"
      (ids keyed) (ids due)
  end;
  (* floors installed by the arbiter must belong to running flows *)
  (match manager with
  | None -> ()
  | Some mgr ->
    let running =
      List.fold_left
        (fun acc (f : E.Flow.t) -> f.E.Flow.id :: acc)
        [] (E.Fabric.active_flows fab)
    in
    List.iter
      (fun (id, floor) ->
        if floor > 0.0 && not (List.mem id running) then
          fail "floor %.6g installed for flow %d which is not running" floor id)
      (M.Arbiter.installed_floors (M.Manager.arbiter mgr)));
  List.rev !failures

(* {1 Replay state} *)

type st = {
  sim : E.Sim.t;
  fab : E.Fabric.t;
  topo : T.Topology.t;
  fwd : (int, E.Flow.t) Hashtbl.t; (* recorded id -> replayed flow *)
  rev : (int, int) Hashtbl.t; (* replayed id -> recorded id *)
  mutable next_id : int; (* the replay fabric's next flow id (sequential from 0) *)
  digest_every : int;
  digests : Trace.digest Queue.t;
  completions : (float * int * float) Queue.t;
  mutable epoch : int;
  mutable ops : int;
  mutable digests_checked : int;
  mutable completions_checked : int;
  mutable divergences : int;
  mutable first_divergence : divergence option;
  mutable invariant_failures : string list; (* reversed *)
  reference : (int * Scanport.snapshot) list; (* digest epoch -> clean-run scan (-1 = final) *)
  on_digest : (int -> E.Fabric.t -> unit) option; (* post-check hook (reference collection) *)
}

let diverge ?register st ~at ~epoch kind detail =
  st.divergences <- st.divergences + 1;
  if st.first_divergence = None then
    st.first_divergence <- Some { at; epoch; kind; detail; register }

(* Escalate a digest mismatch from "first bad epoch" to "first bad
   register": scan the divergent fabric out of band and diff it against
   the clean-run snapshot captured at the same digest point. Runs after
   Recorder.digest has synced byte counters at both capture sites, so
   the two scans align on last_update. *)
let drill_down st key =
  match List.assoc_opt key st.reference with
  | None -> None
  | Some ref_snap -> (
    let own = Scanport.capture st.fab in
    match Scanport.diff ref_snap own with
    | Some m -> Some (Format.asprintf "%a" Scanport.pp_mismatch m)
    | None -> None)

let hex = Printf.sprintf "0x%016Lx"

let check_digest st epoch =
  let at = E.Sim.now st.sim in
  (match Queue.take_opt st.digests with
  | None ->
    diverge st ~at ~epoch "extra-digest"
      (Printf.sprintf "replay reached digest epoch %d past the end of the recorded stream" epoch)
  | Some (exp : Trace.digest) ->
    st.digests_checked <- st.digests_checked + 1;
    let got =
      Recorder.digest
        ~id_of:(fun f ->
          match Hashtbl.find_opt st.rev f.E.Flow.id with Some id -> id | None -> -1 - f.E.Flow.id)
        ~at ~epoch st.fab
    in
    let mismatch kind detail = diverge ?register:(drill_down st epoch) st ~at ~epoch kind detail in
    if exp.Trace.d_epoch <> got.Trace.d_epoch then
      mismatch "epoch" (Printf.sprintf "recorded epoch %d, replayed %d" exp.Trace.d_epoch epoch)
    else if exp.Trace.d_at <> got.Trace.d_at then
      mismatch "clock" (Printf.sprintf "recorded t=%.17g ns, replayed t=%.17g ns" exp.Trace.d_at got.Trace.d_at)
    else if exp.Trace.d_flows <> got.Trace.d_flows then
      mismatch "flows" (Printf.sprintf "recorded %d running flows, replayed %d" exp.Trace.d_flows got.Trace.d_flows)
    else if exp.Trace.d_alloc <> got.Trace.d_alloc then
      mismatch "alloc"
        (Printf.sprintf "allocation vector hash %s vs %s" (hex exp.Trace.d_alloc) (hex got.Trace.d_alloc))
    else if exp.Trace.d_floor <> got.Trace.d_floor then
      mismatch "floors"
        (Printf.sprintf "floor set hash %s vs %s" (hex exp.Trace.d_floor) (hex got.Trace.d_floor))
    else if exp.Trace.d_bytes <> got.Trace.d_bytes then
      mismatch "bytes"
        (Printf.sprintf "byte counter hash %s vs %s" (hex exp.Trace.d_bytes) (hex got.Trace.d_bytes)));
  (match st.on_digest with Some f -> f epoch st.fab | None -> ());
  if List.length st.invariant_failures < 32 then
    st.invariant_failures <-
      List.rev_append
        (List.map (Printf.sprintf "t=%.0f: %s" at) (check_invariants st.fab))
        st.invariant_failures

let check_completion st (f : E.Flow.t) =
  let at = E.Sim.now st.sim in
  let orig =
    match Hashtbl.find_opt st.rev f.E.Flow.id with Some id -> id | None -> -1 - f.E.Flow.id
  in
  match Queue.take_opt st.completions with
  | None ->
    diverge st ~at ~epoch:st.epoch "extra-completion"
      (Printf.sprintf "flow %d completed in replay but not in the recording" orig)
  | Some (exp_at, exp_id, exp_bytes) ->
    st.completions_checked <- st.completions_checked + 1;
    if exp_id <> orig then
      diverge st ~at ~epoch:st.epoch "completion-order"
        (Printf.sprintf "recorded completion of flow %d, replayed flow %d" exp_id orig)
    else if exp_at <> at then
      diverge st ~at ~epoch:st.epoch "completion-time"
        (Printf.sprintf "flow %d completed at %.17g ns, recorded %.17g ns" orig at exp_at)
    else if exp_bytes <> f.E.Flow.transferred then
      diverge st ~at ~epoch:st.epoch "completion-bytes"
        (Printf.sprintf "flow %d moved %.17g bytes, recorded %.17g" orig f.E.Flow.transferred
           exp_bytes)

(* {1 Command application} *)

let apply st (op : Trace.op) =
  st.ops <- st.ops + 1;
  let at = E.Sim.now st.sim in
  let missing id what =
    diverge st ~at ~epoch:st.epoch "unknown-flow"
      (Printf.sprintf "%s refers to recorded flow %d which replay never started" what id)
  in
  match op with
  | Trace.Start_flow s -> (
    match
      List.map
        (fun (lid, d) ->
          {
            T.Path.link = T.Topology.link st.topo lid;
            dir = (if d = 0 then T.Link.Fwd else T.Link.Rev);
          })
        s.Trace.hops
    with
    | hops ->
      let path = { T.Path.src = s.Trace.src; dst = s.Trace.dst; hops } in
      (* map the id the fabric is about to assign *before* starting:
         the start's own reallocation may hit a digest epoch, and the
         digest must already see this flow under its recorded id *)
      Hashtbl.replace st.rev st.next_id s.Trace.flow_id;
      let f =
        E.Fabric.start_flow st.fab ~tenant:s.Trace.tenant ~cls:s.Trace.cls ~weight:s.Trace.weight
          ~floor:s.Trace.floor ~cap:s.Trace.cap ~demand:s.Trace.demand
          ~payload_bytes:s.Trace.payload_bytes ~working_set_pages:s.Trace.working_set_pages
          ~llc_target:s.Trace.llc_target ~path
          ~size:(match s.Trace.size with Some b -> E.Flow.Bytes b | None -> E.Flow.Unbounded)
          ()
      in
      st.next_id <- f.E.Flow.id + 1;
      Hashtbl.replace st.fwd s.Trace.flow_id f;
      Hashtbl.replace st.rev f.E.Flow.id s.Trace.flow_id
    | exception Not_found ->
      diverge st ~at ~epoch:st.epoch "malformed-op"
        (Printf.sprintf "flow %d path references a link unknown to preset topology"
           s.Trace.flow_id))
  | Trace.Stop_flow id -> (
    match Hashtbl.find_opt st.fwd id with
    | Some f -> E.Fabric.stop_flow st.fab f
    | None -> missing id "stop")
  | Trace.Set_limits { flow_id; weight; floor; cap } -> (
    match Hashtbl.find_opt st.fwd flow_id with
    | Some f -> E.Fabric.set_flow_limits st.fab f ~weight ~floor ~cap ()
    | None -> missing flow_id "set_limits")
  | Trace.Inject_fault { link; fault } -> E.Fabric.inject_fault st.fab link fault
  | Trace.Clear_fault link -> E.Fabric.clear_fault st.fab link
  | Trace.Clear_all_faults -> E.Fabric.clear_all_faults st.fab
  | Trace.Inject_sensor_fault { starget; sf } -> E.Fabric.inject_sensor_fault st.fab starget sf
  | Trace.Clear_sensor_fault starget -> E.Fabric.clear_sensor_fault st.fab starget
  | Trace.Set_config c -> E.Fabric.set_config st.fab c
  | Trace.Sync -> E.Fabric.refresh st.fab
  | Trace.Batch_start | Trace.Batch_end ->
    (* batches are grouped during scheduling; bare markers are no-ops *)
    ()

(* {1 The engine} *)

let run_gen ?setup ?perturb ?(reference = []) ?on_digest (trace : Trace.t) =
  match topology_of_preset trace.Trace.header.Trace.preset trace.Trace.header.Trace.host_config with
  | Error e -> Error e
  | Ok topo ->
    let sim = E.Sim.create () in
    let fab = E.Fabric.create ~seed:trace.Trace.header.Trace.seed sim topo in
    let st =
      {
        sim;
        fab;
        topo;
        fwd = Hashtbl.create 256;
        rev = Hashtbl.create 256;
        next_id = 0;
        digest_every = trace.Trace.header.Trace.digest_every;
        digests = Queue.create ();
        completions = Queue.create ();
        epoch = 0;
        ops = 0;
        digests_checked = 0;
        completions_checked = 0;
        divergences = 0;
        first_divergence = None;
        invariant_failures = [];
        reference;
        on_digest;
      }
    in
    (match setup with Some f -> f sim fab | None -> ());
    E.Fabric.subscribe fab (fun ev ->
        match ev with
        | E.Fabric.Reallocated epoch ->
          st.epoch <- epoch;
          if epoch mod st.digest_every = 0 then check_digest st epoch
        | E.Fabric.Flow_completed f -> check_completion st f
        | _ -> ());
    (* clock monotonicity of the trace itself; a NaN time fails [>=] and
       counts as a regression *)
    let prev_at = ref neg_infinity in
    let monotone at =
      if not (at >= !prev_at) then
        st.invariant_failures <-
          Printf.sprintf "clock regression in trace: %.17g after %.17g" at !prev_at
          :: st.invariant_failures
      else prev_at := at
    in
    (* schedule commands in file order (FIFO keeps equal-time order);
       ops inside a recorded batch group into one Fabric.batch call so
       the replayed reallocation epochs stay 1:1 with the recording *)
    let final = ref None in
    let rec sched = function
      | [] -> ()
      | Trace.Op { at; op = Trace.Batch_start } :: rest ->
        monotone at;
        let rec collect acc = function
          | Trace.Op { op = Trace.Batch_end; _ } :: rest -> (List.rev acc, rest)
          | Trace.Op { op; _ } :: rest -> collect (op :: acc) rest
          | (Trace.Digest _ as l) :: rest | (Trace.Completed _ as l) :: rest
          | (Trace.Action _ as l) :: rest ->
            note l;
            collect acc rest
          | (Trace.Header _ | Trace.Final _) :: _ | [] -> (List.rev acc, [])
        in
        let ops, rest = collect [] rest in
        E.Sim.schedule_at sim at (fun _ ->
            E.Fabric.batch fab (fun () -> List.iter (apply st) ops));
        sched rest
      | Trace.Op { at; op } :: rest ->
        monotone at;
        E.Sim.schedule_at sim at (fun _ -> apply st op);
        sched rest
      | (Trace.Digest _ | Trace.Completed _ | Trace.Action _) as l :: rest ->
        note l;
        sched rest
      | Trace.Final d :: rest ->
        final := Some d;
        sched rest
      | Trace.Header _ :: rest -> sched rest
    and note = function
      | Trace.Digest d ->
        monotone d.Trace.d_at;
        Queue.add d st.digests
      | Trace.Completed { at; flow_id; transferred } ->
        monotone at;
        Queue.add (at, flow_id, transferred) st.completions
      | _ -> ()
    in
    sched trace.Trace.lines;
    (* perturbation lands after same-time commands (scheduled last) *)
    (match perturb with
    | None -> ()
    | Some (at, f) -> E.Sim.schedule_at sim at (fun _ -> f fab (E.Fabric.active_flows fab)));
    let final_at = match !final with Some d -> d.Trace.d_at | None -> infinity in
    (match !final with
    | Some d ->
      E.Sim.run ~until:d.Trace.d_at sim;
      (* compare the final digest (not epoch-aligned) *)
      let got =
        Recorder.digest
          ~id_of:(fun f ->
            match Hashtbl.find_opt st.rev f.E.Flow.id with Some id -> id | None -> -1 - f.E.Flow.id)
          ~at:(E.Sim.now sim) ~epoch:st.epoch st.fab
      in
      st.digests_checked <- st.digests_checked + 1;
      if got <> d then
        diverge ?register:(drill_down st (-1)) st ~at:(E.Sim.now sim) ~epoch:st.epoch "final"
          (Printf.sprintf
             "final digest mismatch (epoch %d vs %d, flows %d vs %d, alloc %s vs %s)"
             d.Trace.d_epoch got.Trace.d_epoch d.Trace.d_flows got.Trace.d_flows
             (hex d.Trace.d_alloc) (hex got.Trace.d_alloc));
      (match st.on_digest with Some f -> f (-1) st.fab | None -> ())
    | None -> E.Sim.run sim);
    (* anything recorded but never reached is a divergence too *)
    (match Queue.take_opt st.digests with
    | Some d ->
      diverge st ~at:(E.Sim.now sim) ~epoch:st.epoch "missing-digest"
        (Printf.sprintf "recorded digest at epoch %d never reached in replay (%d pending)"
           d.Trace.d_epoch
           (Queue.length st.digests + 1))
    | None -> ());
    (match Queue.take_opt st.completions with
    | Some (_, id, _) ->
      diverge st ~at:(E.Sim.now sim) ~epoch:st.epoch "missing-completion"
        (Printf.sprintf "recorded completion of flow %d never happened in replay (%d pending)" id
           (Queue.length st.completions + 1))
    | None -> ());
    Ok
      {
        ops = st.ops;
        digests_checked = st.digests_checked;
        completions_checked = st.completions_checked;
        divergences = st.divergences;
        first_divergence = st.first_divergence;
        invariant_failures = List.rev st.invariant_failures;
        final_at = (if final_at = infinity then E.Sim.now sim else final_at);
      }

let run ?setup ?perturb ?reference trace = run_gen ?setup ?perturb ?reference trace

(* Replay the trace cleanly (no perturbation) and scan the fabric out
   of band at every digest point — the reference chain a perturbed
   replay diffs against. Scans are pure reads, so collecting them
   leaves the replay's own digest checks untouched. *)
let scan_reference (trace : Trace.t) =
  let acc = ref [] in
  match run_gen ~on_digest:(fun epoch fab -> acc := (epoch, Scanport.capture fab) :: !acc) trace with
  | Error e -> Error e
  | Ok _ -> Ok (List.rev !acc)

let ok (r : report) = r.divergences = 0 && r.invariant_failures = []

let pp_report ppf (r : report) =
  Format.fprintf ppf "replayed %d command(s): %d digest(s), %d completion(s) checked@." r.ops
    r.digests_checked r.completions_checked;
  (match r.first_divergence with
  | None -> Format.fprintf ppf "no divergence@."
  | Some d ->
    Format.fprintf ppf "%d divergence(s); first at t=%.0f ns, epoch %d [%s]: %s@." r.divergences
      d.at d.epoch d.kind d.detail;
    (match d.register with
    | Some reg -> Format.fprintf ppf "first divergent register: %s@." reg
    | None -> ()));
  match r.invariant_failures with
  | [] -> Format.fprintf ppf "all invariants hold@."
  | fs ->
    Format.fprintf ppf "%d invariant failure(s):@." (List.length fs);
    List.iter (fun f -> Format.fprintf ppf "  %s@." f) fs
