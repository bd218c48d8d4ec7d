(* Out-of-band scan port. Capture is built exclusively on the
   engine's scan_* exposition (pure reads): no sync, no events, no RNG
   draws, no heap or solver movement — the zero-impact contract the
   scanport-idle bench pins down. The register chain is emitted in one
   canonical order so two captures of bit-identical fabrics produce
   byte-identical snapshots (and digests). *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module Man = Ihnet_manager
module Mon = Ihnet_monitor

type value =
  | Int of int
  | Float of float
  | Hash of int64
  | Flag of bool
  | Text of string

type kind = [ `Arch | `Micro ]

type reg = { rpath : string; rvalue : value; rkind : kind }

type snapshot = {
  s_version : int;
  s_at : U.Units.ns;
  s_epoch : int;
  s_regs : reg list;
  s_digest : int64;
}

type summary = { sm_epoch : int; sm_regs : int; sm_digest : int64 }

let version = 1

(* A register value's type, as the walk below hands it to a sink
   without wrapping it in a [value]. *)
type _ ty = I : int ty | F : float ty | H : int64 ty | B : bool ty | S : string ty

(* {2 Digest}

   FNV-1a over each [`Arch] register's path bytes, then its value bits,
   in chain order. A [Hash] folds as two ints, high half first. *)

let add_typed : type a. Trace.fnv -> a ty -> a -> unit =
 fun st ty v ->
  match ty with
  | I -> Trace.fnv_add_int st v
  | F -> Trace.fnv_add_float st v
  | H ->
    Trace.fnv_add_int st (Int64.to_int (Int64.shift_right_logical v 32));
    Trace.fnv_add_int st (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  | B -> Trace.fnv_add_int st (if v then 1 else 0)
  | S -> Trace.fnv_add_string st v

let add_value st = function
  | Int i -> add_typed st I i
  | Float f -> add_typed st F f
  | Hash h -> add_typed st H h
  | Flag b -> add_typed st B b
  | Text s -> add_typed st S s

let chain_digest regs =
  let st = Trace.fnv_start () in
  List.iter
    (fun r ->
      if r.rkind = `Arch then begin
        Trace.fnv_add_string st r.rpath;
        add_value st r.rvalue
      end)
    regs;
  Trace.fnv_value st

let digest s = s.s_digest

(* {2 The scan chain}

   One walk emits every register, in chain order, to a sink: its kind,
   its path in pieces and its typed value. The path is [head] alone
   when [tail] is empty, and [head[index]/tail] otherwise; every piece
   but the index is a string built once, so a sink that only hashes
   renders nothing. *)

type sink = { reg : 'a. kind -> string -> int -> string -> 'a ty -> 'a -> unit }

let cls_paths =
  Array.map
    (fun n -> "cls[" ^ n ^ "]/bytes")
    [| "payload"; "monitoring"; "heartbeat"; "probe"; "induced" |]

(* register tails per direction, forward first (resource [r] is link
   [r/2], forward when [r] is even) *)
let per_dir f = Array.map (fun d -> f (T.Link.dir_label d)) [| T.Link.Fwd; T.Link.Rev |]
let link_tails = per_dir (fun d -> (d ^ "/rate", d ^ "/flows", d ^ "/bytes", d ^ "/cap"))
let sketch_tails = per_dir (fun d -> (d ^ "/count", d ^ "/hash"))

let evidence_tails =
  let tails m =
    let l = Mon.Evidence.modality_label m in
    (l ^ "/score", l ^ "/at")
  in
  let op = tails Mon.Evidence.Operator and hb = tails Mon.Evidence.Heartbeat in
  let co = tails Mon.Evidence.Counter and an = tails Mon.Evidence.Anomaly in
  function
  | Mon.Evidence.Operator -> op
  | Mon.Evidence.Heartbeat -> hb
  | Mon.Evidence.Counter -> co
  | Mon.Evidence.Anomaly -> an

let hash_row (row : float array) =
  let st = Trace.fnv_start () in
  Trace.fnv_add_floats st row;
  Trace.fnv_value st

let hash_sketch sk =
  let st = Trace.fnv_start () in
  U.Sketch.fold_buckets sk ~init:() (fun () n -> Trace.fnv_add_int st n);
  Trace.fnv_add_float st (U.Sketch.min_value sk);
  Trace.fnv_add_float st (U.Sketch.max_value sk);
  Trace.fnv_value st

let walk ?remediation ?evidence fab sink =
  let arch : 'a. string -> int -> string -> 'a ty -> 'a -> unit =
   fun head i tail ty v -> sink.reg `Arch head i tail ty v
  and micro : 'a. string -> int -> string -> 'a ty -> 'a -> unit =
   fun head i tail ty v -> sink.reg `Micro head i tail ty v
  in
  arch "clock/now" 0 "" F (E.Fabric.scan_clock fab);
  arch "clock/last_update" 0 "" F (E.Fabric.scan_last_update fab);
  arch "epoch" 0 "" I (E.Fabric.scan_epoch fab);
  arch "allocs" 0 "" I (E.Fabric.reallocations fab);
  arch "flow/next_id" 0 "" I (E.Fabric.scan_next_flow_id fab);
  arch "rng/state" 0 "" H (E.Fabric.scan_rng_state fab);
  arch "config/cache_gen" 0 "" I (E.Fabric.scan_cache_gen fab);
  (* per-(link, dir) rate tables, counters and capacities *)
  let nr = E.Fabric.scan_resources fab in
  let load = E.Fabric.scan_load fab
  and flows_on = E.Fabric.scan_flows_on fab
  and bytes = E.Fabric.scan_link_bytes fab
  and caps = E.Fabric.scan_caps fab in
  for r = 0 to nr - 1 do
    let rate, flows, nbytes, cap = link_tails.(r land 1) in
    arch "link" (r / 2) rate F load.(r);
    arch "link" (r / 2) flows I flows_on.(r);
    arch "link" (r / 2) nbytes F bytes.(r);
    arch "link" (r / 2) cap F caps.(r)
  done;
  let ddw, ddh, swb, srr = E.Fabric.scan_ddio fab in
  for s = 0 to Array.length ddw - 1 do
    arch "ddio" s "write" F ddw.(s);
    arch "ddio" s "hit" F ddh.(s);
    arch "ddio" s "spill_wb" F swb.(s);
    arch "ddio" s "spill_rr" F srr.(s)
  done;
  List.iter
    (fun (tn, row) -> arch "tenant" tn "bytes" H (hash_row row))
    (E.Fabric.scan_tenant_rows fab);
  Array.iteri (fun i row -> arch cls_paths.(i) 0 "" H (hash_row row)) (E.Fabric.scan_cls_rows fab);
  (* flow internals, id ascending *)
  List.iter
    (fun (f : E.Flow.t) ->
      let id = f.E.Flow.id in
      arch "flow" id "tenant" I f.E.Flow.tenant;
      arch "flow" id "weight" F f.E.Flow.weight;
      arch "flow" id "floor" F f.E.Flow.floor;
      arch "flow" id "cap" F f.E.Flow.cap;
      arch "flow" id "demand" F f.E.Flow.demand;
      arch "flow" id "rate" F f.E.Flow.rate;
      arch "flow" id "remaining" F f.E.Flow.remaining;
      arch "flow" id "transferred" F f.E.Flow.transferred)
    (E.Fabric.scan_flows fab);
  (* completion keys in pop order *)
  List.iteri
    (fun i (due, fid) ->
      arch "heap" i "at" F due;
      arch "heap" i "flow" I fid)
    (E.Fabric.scan_completion_heap fab);
  (* remediation state machines, link ascending *)
  (match remediation with
  | None -> ()
  | Some rem ->
    let cases =
      List.sort
        (fun (a : Man.Remediation.case) b -> compare a.Man.Remediation.link b.Man.Remediation.link)
        (Man.Remediation.cases rem)
    in
    List.iter
      (fun (c : Man.Remediation.case) ->
        let l = c.Man.Remediation.link in
        arch "rem/link" l "status" S (Man.Remediation.status_label c.Man.Remediation.status);
        arch "rem/link" l "stage" S (Man.Remediation.stage_label c.Man.Remediation.stage);
        arch "rem/link" l "attempts" I c.Man.Remediation.attempts;
        arch "rem/link" l "detected_at" F c.Man.Remediation.detected_at;
        arch "rem/link" l "recovered_at" F
          (Option.value ~default:nan c.Man.Remediation.recovered_at);
        arch "rem/link" l "next_due" F c.Man.Remediation.next_due;
        arch "rem/link" l "held_until" F c.Man.Remediation.held_until;
        arch "rem/link" l "transitions" I (List.length c.Man.Remediation.transitions);
        arch "rem/link" l "degraded" I (List.length c.Man.Remediation.degraded_ids);
        arch "rem/link" l "actions" I c.Man.Remediation.total_actions;
        arch "rem/link" l "gate_waits" I c.Man.Remediation.gate_waits)
      cases);
  (* evidence window, raw: (link, modality) ascending *)
  (match evidence with
  | None -> ()
  | Some ev ->
    List.iter
      (fun (link, m, score, rat) ->
        let tscore, tat = evidence_tails m in
        arch "evidence/link" link tscore F score;
        arch "evidence/link" link tat F rat)
      (Mon.Evidence.scan_reports ev));
  (* latency-sketch planes (when enabled): bucket-array hash + count *)
  (if E.Fabric.latency_sketches_enabled fab then begin
     for r = 0 to nr - 1 do
       let link = r / 2 and dir = if r land 1 = 0 then T.Link.Fwd else T.Link.Rev in
       match E.Fabric.link_latency_sketch fab link dir with
       | None -> ()
       | Some sk ->
         let count, hash = sketch_tails.(r land 1) in
         arch "sketch/link" link count I (U.Sketch.count sk);
         arch "sketch/link" link hash H (hash_sketch sk)
     done;
     match E.Fabric.flow_latency_sketch fab with
     | None -> ()
     | Some sk ->
       arch "sketch/flows/count" 0 "" I (U.Sketch.count sk);
       arch "sketch/flows/hash" 0 "" H (hash_sketch sk)
   end);
  (* microarchitectural registers: how the answer was produced *)
  let st = E.Fabric.scan_solver_stats fab in
  micro "solver/solves" 0 "" I st.E.Fairshare.solves;
  micro "solver/full_rebuilds" 0 "" I st.E.Fairshare.full_rebuilds;
  micro "solver/incremental" 0 "" I st.E.Fairshare.incremental;
  micro "solver/unchanged" 0 "" I st.E.Fairshare.unchanged

(* {2 Capture: the rendering sink} *)

let render_path head i tail =
  if String.length tail = 0 then head
  else String.concat "" [ head; "["; string_of_int i; "]/"; tail ]

let to_value : type a. a ty -> a -> value =
 fun ty v -> match ty with I -> Int v | F -> Float v | H -> Hash v | B -> Flag v | S -> Text v

let capture ?remediation ?evidence fab =
  let regs = ref [] in
  walk ?remediation ?evidence fab
    {
      reg =
        (fun kind head i tail ty v ->
          let r = { rpath = render_path head i tail; rvalue = to_value ty v; rkind = kind } in
          regs := r :: !regs);
    };
  let regs = List.rev !regs in
  {
    s_version = version;
    s_at = E.Fabric.scan_clock fab;
    s_epoch = E.Fabric.scan_epoch fab;
    s_regs = regs;
    s_digest = chain_digest regs;
  }

(* {2 Summary: the hashing sink}

   Feeds the digest exactly the bytes [chain_digest] reads from a
   rendered register, written straight from the pieces: the head, then
   ['['], the index in decimal, ["]/"] and the tail. *)

(* the decimal digits of [n <= 0]'s magnitude, most significant first
   (working on the negative side reaches [min_int]) *)
let rec add_digits st n =
  if n <= -10 then add_digits st (n / 10);
  Trace.fnv_add_char st (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_path st head i tail =
  Trace.fnv_add_string st head;
  if String.length tail > 0 then begin
    Trace.fnv_add_char st '[';
    if i < 0 then Trace.fnv_add_char st '-';
    add_digits st (if i < 0 then i else -i);
    Trace.fnv_add_char st ']';
    Trace.fnv_add_char st '/';
    Trace.fnv_add_string st tail
  end

let summary ?remediation ?evidence fab =
  let st = Trace.fnv_start () and n = ref 0 in
  walk ?remediation ?evidence fab
    {
      reg =
        (fun kind head i tail ty v ->
          incr n;
          if kind = `Arch then begin
            add_path st head i tail;
            add_typed st ty v
          end);
    };
  { sm_epoch = E.Fabric.scan_epoch fab; sm_regs = !n; sm_digest = Trace.fnv_value st }

let find s path = List.find_map (fun r -> if r.rpath = path then Some r.rvalue else None) s.s_regs

(* exact textual form: floats at 17 significant digits *)
let render_value = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | Hash h -> Printf.sprintf "0x%016Lx" h
  | Flag b -> string_of_bool b
  | Text s -> s

(* {2 Codec} *)

let tag kind v =
  (match kind with `Arch -> "a" | `Micro -> "m")
  ^ match v with Int _ -> "i" | Float _ -> "f" | Hash _ -> "h" | Flag _ -> "b" | Text _ -> "s"

let reg_to_json r =
  let v =
    match r.rvalue with
    | Int i -> Trace.jint i
    | Float f -> Trace.jfloat f
    | Hash h -> Trace.jhash h
    | Flag b -> Trace.Bool b
    | Text s -> Trace.Str s
  in
  Trace.Arr [ Trace.Str r.rpath; Trace.Str (tag r.rkind r.rvalue); v ]

let reg_of_json j =
  match j with
  | Trace.Arr [ Trace.Str path; Trace.Str tag; v ] when String.length tag = 2 ->
    let kind =
      match tag.[0] with
      | 'a' -> `Arch
      | 'm' -> `Micro
      | _ -> raise (Trace.Parse_error ("scan: bad register kind " ^ tag))
    in
    let value =
      match tag.[1] with
      | 'i' -> Int (Trace.as_int v)
      | 'f' -> Float (Trace.as_float v)
      | 'h' -> Hash (Trace.as_hash v)
      | 'b' -> Flag (Trace.as_bool v)
      | 's' -> Text (Trace.as_string v)
      | _ -> raise (Trace.Parse_error ("scan: bad register type " ^ tag))
    in
    { rpath = path; rvalue = value; rkind = kind }
  | _ -> raise (Trace.Parse_error "scan: malformed register")

let to_json s =
  Trace.Obj
    [
      ("scan", Trace.jint s.s_version);
      ("at", Trace.jfloat s.s_at);
      ("epoch", Trace.jint s.s_epoch);
      ("digest", Trace.jhash s.s_digest);
      ("regs", Trace.Arr (List.map reg_to_json s.s_regs));
    ]

let of_json j =
  let v = Trace.as_int (Trace.field j "scan") in
  if v <> version then
    raise (Trace.Parse_error (Printf.sprintf "scan: unsupported version %d" v));
  let regs = List.map reg_of_json (Trace.as_list (Trace.field j "regs")) in
  let stored = Trace.as_hash (Trace.field j "digest") in
  let computed = chain_digest regs in
  if not (Int64.equal stored computed) then
    raise (Trace.Parse_error "scan: stored digest does not match the register chain");
  {
    s_version = v;
    s_at = Trace.as_float (Trace.field j "at");
    s_epoch = Trace.as_int (Trace.field j "epoch");
    s_regs = regs;
    s_digest = stored;
  }

let save path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Trace.json_to_string (to_json s));
      output_char oc '\n')

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
    match of_json (Trace.json_of_string (String.trim contents)) with
    | s -> Ok s
    | exception Trace.Parse_error e -> Error e)

(* {2 Diff} *)

type mismatch = { d_path : string; d_left : string; d_right : string; d_total : int }

let value_eq a b =
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | a, b -> a = b

let diff ?(scope = `Arch) left right =
  let wanted r = match scope with `All -> true | `Arch -> r.rkind = `Arch in
  let lregs = List.filter wanted left.s_regs and rregs = List.filter wanted right.s_regs in
  let rmap = Hashtbl.create (List.length rregs) in
  List.iter (fun r -> Hashtbl.replace rmap r.rpath r.rvalue) rregs;
  let lset = Hashtbl.create (List.length lregs) in
  List.iter (fun r -> Hashtbl.replace lset r.rpath ()) lregs;
  let mismatches =
    List.filter_map
      (fun r ->
        match Hashtbl.find_opt rmap r.rpath with
        | Some v when value_eq r.rvalue v -> None
        | Some v -> Some (r.rpath, render_value r.rvalue, render_value v)
        | None -> Some (r.rpath, render_value r.rvalue, "<absent>"))
      lregs
    @ List.filter_map
        (fun r ->
          if Hashtbl.mem lset r.rpath then None
          else Some (r.rpath, "<absent>", render_value r.rvalue))
        rregs
  in
  match mismatches with
  | [] -> None
  | (p, l, r) :: _ -> Some { d_path = p; d_left = l; d_right = r; d_total = List.length mismatches }

let pp_mismatch ppf m =
  Format.fprintf ppf "%s: %s vs %s (%d register(s) differ)" m.d_path m.d_left m.d_right m.d_total

(* {2 Freeze / single-step} *)

type freeze = { f_fab : E.Fabric.t; mutable f_stepped : int; mutable f_live : bool }

let freeze fab = { f_fab = fab; f_stepped = 0; f_live = true }

let step f n =
  if not f.f_live then invalid_arg "Scanport.step: freeze already thawed";
  if n < 0 then invalid_arg "Scanport.step: negative step count";
  let k = ref 0 in
  (try
     for _ = 1 to n do
       if E.Fabric.step_epoch f.f_fab then incr k else raise Exit
     done
   with Exit -> ());
  f.f_stepped <- f.f_stepped + !k;
  !k

let epochs_stepped f = f.f_stepped
let thaw f = f.f_live <- false
