module T = Ihnet_topology

type digest = {
  d_at : float;
  d_epoch : int;
  d_flows : int;
  d_alloc : int64;
  d_floor : int64;
  d_bytes : int64;
}

(* FNV-1a, 64-bit. Hashing IEEE-754 bits keeps digest comparison an
   exact state-equality check with no float-formatting ambiguity. The
   mixing steps are inlined so the running state stays an unboxed
   local: a fold allocates at most its boxed result, never an int64
   per byte. *)
let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let[@inline] fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let[@inline] mix_int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !h

let[@inline] mix_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let fnv_int64 h x = mix_int64 h x
let fnv_int h i = mix_int64 h (Int64.of_int i)
let fnv_float h f = mix_int64 h (Int64.bits_of_float f)
let fnv_string h s = mix_string h s

(* The streaming state is 8 bytes read and written through the unboxed
   64-bit primitives, so feeding it allocates nothing at all. *)
type fnv = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let fnv_start () =
  let st = Bytes.create 8 in
  set64 st 0 fnv_basis;
  st

let fnv_value st = get64 st 0
let fnv_add_char st c = set64 st 0 (fnv_byte (get64 st 0) (Char.code c))
let fnv_add_int st i = set64 st 0 (mix_int64 (get64 st 0) (Int64.of_int i))
let fnv_add_float st f = set64 st 0 (mix_int64 (get64 st 0) (Int64.bits_of_float f))
let fnv_add_string st s = set64 st 0 (mix_string (get64 st 0) s)

let fnv_add_floats st (a : float array) =
  let h = ref (get64 st 0) in
  for i = 0 to Array.length a - 1 do
    h := mix_int64 !h (Int64.bits_of_float (Array.unsafe_get a i))
  done;
  set64 st 0 !h

type fault = { capacity_factor : float; extra_latency : float; loss_prob : float }

type starget = Sf_device of int | Sf_series of string

type sensor_fault = {
  sf_stuck : bool;
  sf_drift : float;
  sf_drop : float;
  sf_dup : float;
  sf_skew : float;
  sf_probe_loss : float;
  sf_probe_slow : float;
}

type config = {
  iommu : (int * float * float) option;
  ddio : (int * int * float) option;
  pcie_mps : int;
  relaxed_ordering : bool;
  acs : bool;
  interrupt_moderation : float;
}

type flow_spec = {
  flow_id : int;
  tenant : int;
  cls : string;
  weight : float;
  floor : float;
  cap : float;
  demand : float;
  payload_bytes : int;
  working_set_pages : int;
  llc_target : bool;
  size : float option;
  src : int;
  dst : int;
  hops : (int * int) list;
}

type op =
  | Start_flow of flow_spec
  | Stop_flow of int
  | Set_limits of { flow_id : int; weight : float; floor : float; cap : float }
  | Inject_fault of { link : int; fault : fault }
  | Clear_fault of int
  | Clear_all_faults
  | Inject_sensor_fault of { starget : starget; sf : sensor_fault }
  | Clear_sensor_fault of starget
  | Set_config of config
  | Sync
  | Batch_start
  | Batch_end

type header = {
  version : int;
  preset : string;
  seed : int;
  label : string;
  digest_every : int;
  host_config : config;
}

type line =
  | Header of header
  | Op of { at : float; op : op }
  | Completed of { at : float; flow_id : int; transferred : float }
  | Action of { at : float; link : int; stage : string; detail : string }
  | Digest of digest
  | Final of digest

let version = 1

let config_of_host (c : T.Hostconfig.t) =
  {
    iommu =
      (match c.T.Hostconfig.iommu with
      | T.Hostconfig.Iommu_off -> None
      | T.Hostconfig.Iommu_on { iotlb_entries; hit_latency; miss_penalty } ->
        Some (iotlb_entries, hit_latency, miss_penalty));
    ddio =
      (match c.T.Hostconfig.ddio with
      | T.Hostconfig.Ddio_off -> None
      | T.Hostconfig.Ddio_on { llc_ways; io_ways; way_size } -> Some (llc_ways, io_ways, way_size));
    pcie_mps = c.T.Hostconfig.pcie_mps;
    relaxed_ordering = c.T.Hostconfig.relaxed_ordering;
    acs = c.T.Hostconfig.acs;
    interrupt_moderation = c.T.Hostconfig.interrupt_moderation;
  }

let host_of_config (c : config) : T.Hostconfig.t =
  {
    T.Hostconfig.iommu =
      (match c.iommu with
      | None -> T.Hostconfig.Iommu_off
      | Some (iotlb_entries, hit_latency, miss_penalty) ->
        T.Hostconfig.Iommu_on { iotlb_entries; hit_latency; miss_penalty });
    ddio =
      (match c.ddio with
      | None -> T.Hostconfig.Ddio_off
      | Some (llc_ways, io_ways, way_size) -> T.Hostconfig.Ddio_on { llc_ways; io_ways; way_size });
    pcie_mps = c.pcie_mps;
    relaxed_ordering = c.relaxed_ordering;
    acs = c.acs;
    interrupt_moderation = c.interrupt_moderation;
  }

(* {1 A minimal JSON model — no external dependencies allowed} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* Floats print with 17 significant digits: enough for an exact binary
   round-trip through [float_of_string]. Non-finite values are not
   valid JSON numbers, so they travel as tagged strings. *)
let jfloat f =
  if Float.is_nan f then Str "nan"
  else if f = infinity then Str "inf"
  else if f = neg_infinity then Str "-inf"
  else Num f

let jint i = Num (float_of_int i)
let jhash h = Str (Printf.sprintf "0x%016Lx" h)

let emit_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s -> emit_string b s
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit_string b k;
        Buffer.add_char b ':';
        emit b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 128 in
  emit b j;
  Buffer.contents b

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "bad escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 >= n then fail "bad \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          let code = int_of_string ("0x" ^ hex) in
          (* traces only ever escape control characters *)
          Buffer.add_char b (Char.chr (code land 0xff));
          pos := !pos + 4
        | c -> fail (Printf.sprintf "bad escape \\%c" c));
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elems (v :: acc)
          | Some ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* {1 Decoding helpers} *)

let field obj k =
  match obj with
  | Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> raise (Parse_error ("missing field " ^ k)))
  | _ -> raise (Parse_error "expected object")

let field_opt obj k = match obj with Obj kvs -> List.assoc_opt k kvs | _ -> None

let as_float = function
  | Num f -> f
  | Str "inf" -> infinity
  | Str "-inf" -> neg_infinity
  | Str "nan" -> nan
  | _ -> raise (Parse_error "expected number")

let as_int j =
  let f = as_float j in
  if Float.is_integer f then int_of_float f else raise (Parse_error "expected integer")

let as_string = function Str s -> s | _ -> raise (Parse_error "expected string")
let as_bool = function Bool b -> b | _ -> raise (Parse_error "expected bool")
let as_list = function Arr xs -> xs | _ -> raise (Parse_error "expected array")

let as_hash j =
  let s = as_string j in
  match Int64.of_string_opt s with
  | Some h -> h
  | None -> raise (Parse_error ("bad hash " ^ s))

(* {1 Line encoding} *)

let config_to_json (c : config) =
  Obj
    [
      ( "iommu",
        match c.iommu with
        | None -> Null
        | Some (e, h, m) -> Obj [ ("entries", jint e); ("hit", jfloat h); ("miss", jfloat m) ] );
      ( "ddio",
        match c.ddio with
        | None -> Null
        | Some (lw, iw, ws) ->
          Obj [ ("llc_ways", jint lw); ("io_ways", jint iw); ("way_size", jfloat ws) ] );
      ("mps", jint c.pcie_mps);
      ("ro", Bool c.relaxed_ordering);
      ("acs", Bool c.acs);
      ("int_mod", jfloat c.interrupt_moderation);
    ]

let config_of_json j =
  {
    iommu =
      (match field j "iommu" with
      | Null -> None
      | o -> Some (as_int (field o "entries"), as_float (field o "hit"), as_float (field o "miss")));
    ddio =
      (match field j "ddio" with
      | Null -> None
      | o ->
        Some (as_int (field o "llc_ways"), as_int (field o "io_ways"), as_float (field o "way_size")));
    pcie_mps = as_int (field j "mps");
    relaxed_ordering = as_bool (field j "ro");
    acs = as_bool (field j "acs");
    interrupt_moderation = as_float (field j "int_mod");
  }

let spec_to_json (s : flow_spec) =
  Obj
    [
      ("id", jint s.flow_id);
      ("tenant", jint s.tenant);
      ("cls", Str s.cls);
      ("weight", jfloat s.weight);
      ("floor", jfloat s.floor);
      ("cap", jfloat s.cap);
      ("demand", jfloat s.demand);
      ("payload", jint s.payload_bytes);
      ("wsp", jint s.working_set_pages);
      ("llc", Bool s.llc_target);
      ("size", (match s.size with None -> Null | Some b -> jfloat b));
      ("src", jint s.src);
      ("dst", jint s.dst);
      ("hops", Arr (List.map (fun (l, d) -> Arr [ jint l; jint d ]) s.hops));
    ]

let spec_of_json j =
  {
    flow_id = as_int (field j "id");
    tenant = as_int (field j "tenant");
    cls = as_string (field j "cls");
    weight = as_float (field j "weight");
    floor = as_float (field j "floor");
    cap = as_float (field j "cap");
    demand = as_float (field j "demand");
    payload_bytes = as_int (field j "payload");
    working_set_pages = as_int (field j "wsp");
    llc_target = as_bool (field j "llc");
    size = (match field j "size" with Null -> None | v -> Some (as_float v));
    src = as_int (field j "src");
    dst = as_int (field j "dst");
    hops =
      List.map
        (fun h ->
          match as_list h with
          | [ l; d ] -> (as_int l, as_int d)
          | _ -> raise (Parse_error "bad hop"))
        (as_list (field j "hops"));
  }

let starget_field = function
  | Sf_device d -> ("dev", jint d)
  | Sf_series s -> ("series", Str s)

let starget_of_json j =
  match field_opt j "dev" with
  | Some d -> Sf_device (as_int d)
  | None -> Sf_series (as_string (field j "series"))

let op_to_fields = function
  | Start_flow s -> [ ("op", Str "start"); ("flow", spec_to_json s) ]
  | Stop_flow id -> [ ("op", Str "stop"); ("id", jint id) ]
  | Set_limits { flow_id; weight; floor; cap } ->
    [
      ("op", Str "limits");
      ("id", jint flow_id);
      ("weight", jfloat weight);
      ("floor", jfloat floor);
      ("cap", jfloat cap);
    ]
  | Inject_fault { link; fault } ->
    [
      ("op", Str "fault");
      ("link", jint link);
      ("cf", jfloat fault.capacity_factor);
      ("lat", jfloat fault.extra_latency);
      ("loss", jfloat fault.loss_prob);
    ]
  | Clear_fault link -> [ ("op", Str "clear"); ("link", jint link) ]
  | Clear_all_faults -> [ ("op", Str "clear_all") ]
  | Inject_sensor_fault { starget; sf } ->
    ("op", Str "sensor_fault")
    :: starget_field starget
    :: [
         ("stuck", Bool sf.sf_stuck);
         ("drift", jfloat sf.sf_drift);
         ("drop", jfloat sf.sf_drop);
         ("dup", jfloat sf.sf_dup);
         ("skew", jfloat sf.sf_skew);
         ("ploss", jfloat sf.sf_probe_loss);
         ("pslow", jfloat sf.sf_probe_slow);
       ]
  | Clear_sensor_fault starget -> [ ("op", Str "sensor_clear"); starget_field starget ]
  | Set_config c -> [ ("op", Str "config"); ("config", config_to_json c) ]
  | Sync -> [ ("op", Str "sync") ]
  | Batch_start -> [ ("op", Str "batch_start") ]
  | Batch_end -> [ ("op", Str "batch_end") ]

let op_of_json j =
  match as_string (field j "op") with
  | "start" -> Start_flow (spec_of_json (field j "flow"))
  | "stop" -> Stop_flow (as_int (field j "id"))
  | "limits" ->
    Set_limits
      {
        flow_id = as_int (field j "id");
        weight = as_float (field j "weight");
        floor = as_float (field j "floor");
        cap = as_float (field j "cap");
      }
  | "fault" ->
    Inject_fault
      {
        link = as_int (field j "link");
        fault =
          {
            capacity_factor = as_float (field j "cf");
            extra_latency = as_float (field j "lat");
            loss_prob = as_float (field j "loss");
          };
      }
  | "clear" -> Clear_fault (as_int (field j "link"))
  | "clear_all" -> Clear_all_faults
  | "sensor_fault" ->
    Inject_sensor_fault
      {
        starget = starget_of_json j;
        sf =
          {
            sf_stuck = as_bool (field j "stuck");
            sf_drift = as_float (field j "drift");
            sf_drop = as_float (field j "drop");
            sf_dup = as_float (field j "dup");
            sf_skew = as_float (field j "skew");
            sf_probe_loss = as_float (field j "ploss");
            sf_probe_slow = as_float (field j "pslow");
          };
      }
  | "sensor_clear" -> Clear_sensor_fault (starget_of_json j)
  | "config" -> Set_config (config_of_json (field j "config"))
  | "sync" -> Sync
  | "batch_start" -> Batch_start
  | "batch_end" -> Batch_end
  | op -> raise (Parse_error ("unknown op " ^ op))

let digest_fields (d : digest) =
  [
    ("at", jfloat d.d_at);
    ("epoch", jint d.d_epoch);
    ("flows", jint d.d_flows);
    ("alloc", jhash d.d_alloc);
    ("floor", jhash d.d_floor);
    ("bytes", jhash d.d_bytes);
  ]

let digest_of_json j =
  {
    d_at = as_float (field j "at");
    d_epoch = as_int (field j "epoch");
    d_flows = as_int (field j "flows");
    d_alloc = as_hash (field j "alloc");
    d_floor = as_hash (field j "floor");
    d_bytes = as_hash (field j "bytes");
  }

let line_to_json = function
  | Header h ->
    Obj
      [
        ("t", Str "header");
        ("version", jint h.version);
        ("preset", Str h.preset);
        ("seed", jint h.seed);
        ("label", Str h.label);
        ("digest_every", jint h.digest_every);
        ("config", config_to_json h.host_config);
      ]
  | Op { at; op } -> Obj (("t", Str "op") :: ("at", jfloat at) :: op_to_fields op)
  | Completed { at; flow_id; transferred } ->
    Obj
      [ ("t", Str "done"); ("at", jfloat at); ("id", jint flow_id); ("bytes", jfloat transferred) ]
  | Action { at; link; stage; detail } ->
    Obj
      [
        ("t", Str "action");
        ("at", jfloat at);
        ("link", jint link);
        ("stage", Str stage);
        ("detail", Str detail);
      ]
  | Digest d -> Obj (("t", Str "digest") :: digest_fields d)
  | Final d -> Obj (("t", Str "final") :: digest_fields d)

let line_to_string l = to_string (line_to_json l)

let line_of_json j =
  match as_string (field j "t") with
  | "header" ->
    Header
      {
        version = as_int (field j "version");
        preset = as_string (field j "preset");
        seed = as_int (field j "seed");
        label = (match field_opt j "label" with Some l -> as_string l | None -> "");
        digest_every = as_int (field j "digest_every");
        host_config = config_of_json (field j "config");
      }
  | "op" -> Op { at = as_float (field j "at"); op = op_of_json j }
  | "done" ->
    Completed
      {
        at = as_float (field j "at");
        flow_id = as_int (field j "id");
        transferred = as_float (field j "bytes");
      }
  | "action" ->
    Action
      {
        at = as_float (field j "at");
        link = as_int (field j "link");
        stage = as_string (field j "stage");
        detail = as_string (field j "detail");
      }
  | "digest" -> Digest (digest_of_json j)
  | "final" -> Final (digest_of_json j)
  | t -> raise (Parse_error ("unknown line type " ^ t))

let line_of_string s =
  match line_of_json (parse_json s) with
  | l -> Ok l
  | exception Parse_error msg -> Error msg

type t = { header : header; lines : line list }

let of_lines = function
  | Header h :: rest ->
    if h.version <> version then
      Error (Printf.sprintf "trace version %d, this build reads %d" h.version version)
    else Ok { header = h; lines = rest }
  | _ -> Error "first trace line is not a header"

let parse s =
  let raw = String.split_on_char '\n' s in
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
      let l = String.trim l in
      if l = "" then go acc (i + 1) rest
      else (
        match line_of_string l with
        | Ok line -> go (line :: acc) (i + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" i e))
  in
  match go [] 1 raw with Ok lines -> of_lines lines | Error _ as e -> e

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> parse s
  | exception Sys_error e -> Error e

let save path t =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc (line_to_string l);
          Out_channel.output_char oc '\n')
        (Header t.header :: t.lines))

let fingerprint t =
  List.fold_left
    (fun h l -> fnv_string h (line_to_string l))
    fnv_basis
    (Header t.header :: t.lines)

let json_of_string = parse_json
let json_to_string = to_string
let digest_to_json d = Obj (digest_fields d)
