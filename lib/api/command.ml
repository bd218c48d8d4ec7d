module J = Ihnet_record.Trace
module I = Ihnet_manager.Intent

let version = 1

type fidelity = Fid_hardware | Fid_software | Fid_oracle
type stream = S_telemetry | S_decisions | S_evidence
type fleet_fault = F_crash | F_restart | F_partition | F_heal

type t =
  | Hello of { version : int }
  | Topo of { dot : bool }
  | Ping of { src : string; dst : string; count : int; load : bool }
  | Path_trace of { src : string; dst : string; load : bool }
  | Perf of { src : string; dst : string; load : bool }
  | Dump of { a : string; b : string; load : bool }
  | Check
  | Heartbeat of { degrade : (string * string) option }
  | Heal of {
      src : string;
      dst : string;
      gbps : float;
      fault : (string * string) option;
      factor : float;
      silent : bool;
      flap : int option;
      ms : float;
    }
  | Scenario_list
  | Scenario of { name : string; ms : float; protect : float option }
  | Monitor of { ms : float; period_us : float; series : string option; load : bool }
  | Report of { fidelity : fidelity; load : bool }
  | Plan of {
      pipes : (string * string * float) list;
      hoses : (string * float * float) list;
      headroom : float;
    }
  | Latency of { link : bool; ms : float; load : bool }
  | Scan of { ms : float; load : bool; step : int option; snapshot : bool }
  | Run_for of { ms : float }
  | Flow_start of { tenant : int; src : string; dst : string; gbps : float option }
  | Flow_stop of { flow : int }
  | Submit of I.t
  | Fault_inject of { a : string; b : string; factor : float; extra_us : float; loss : float }
  | Fault_clear of { a : string; b : string }
  | Faults_clear_all
  | Subscribe of stream
  | Stats
  | Shutdown
  | Fleet_spawn of { name : string; preset : string }
  | Fleet_submit of I.t
  | Fleet_run of { rounds : int }
  | Fleet_status of { decisions : bool }
  | Fleet_fault of { host : string; what : fleet_fault }
  | Fleet_loss of { host : string; loss : float }

let batchable = function
  | Flow_start _ | Flow_stop _ | Fault_inject _ | Fault_clear _ | Faults_clear_all -> true
  | _ -> false

(* {1 Intents} *)

let target_to_json = function
  | I.Pipe { src; dst; rate } ->
    J.Obj
      [ ("t", J.jstr "pipe"); ("src", J.jstr src); ("dst", J.jstr dst); ("rate", J.jfloat rate) ]
  | I.Hose { endpoint; to_host; from_host } ->
    J.Obj
      [ ("t", J.jstr "hose"); ("endpoint", J.jstr endpoint); ("to_host", J.jfloat to_host);
        ("from_host", J.jfloat from_host) ]

let target_of_json j =
  match J.as_string (J.field j "t") with
  | "pipe" ->
    I.Pipe
      { src = J.as_string (J.field j "src"); dst = J.as_string (J.field j "dst");
        rate = J.as_float (J.field j "rate") }
  | "hose" ->
    I.Hose
      { endpoint = J.as_string (J.field j "endpoint");
        to_host = J.as_float (J.field j "to_host");
        from_host = J.as_float (J.field j "from_host") }
  | s -> raise (J.Parse_error ("unknown intent target " ^ s))

let intent_to_json (i : I.t) =
  J.Obj
    [ ("tenant", J.jint i.I.tenant);
      ("targets", J.Arr (List.map target_to_json i.I.targets));
      ("latency_bound", J.jopt J.jfloat i.I.latency_bound);
      ("p99_bound", J.jopt J.jfloat i.I.p99_bound);
      ("work_conserving", J.jbool i.I.work_conserving) ]

let intent_of_json j =
  { I.tenant = J.as_int (J.field j "tenant");
    targets = List.map target_of_json (J.as_list (J.field j "targets"));
    latency_bound = J.opt_of (J.field j "latency_bound") J.as_float;
    p99_bound = J.opt_of (J.field j "p99_bound") J.as_float;
    work_conserving = J.as_bool (J.field j "work_conserving") }

(* {1 Codec} *)

let fidelity_label = function
  | Fid_hardware -> "hardware"
  | Fid_software -> "software"
  | Fid_oracle -> "oracle"

let fidelity_of = function
  | "hardware" -> Fid_hardware
  | "software" -> Fid_software
  | "oracle" -> Fid_oracle
  | s -> raise (J.Parse_error ("unknown fidelity " ^ s))

let stream_label = function
  | S_telemetry -> "telemetry"
  | S_decisions -> "decisions"
  | S_evidence -> "evidence"

let stream_of = function
  | "telemetry" -> S_telemetry
  | "decisions" -> S_decisions
  | "evidence" -> S_evidence
  | s -> raise (J.Parse_error ("unknown stream " ^ s))

let fleet_fault_label = function
  | F_crash -> "crash"
  | F_restart -> "restart"
  | F_partition -> "partition"
  | F_heal -> "heal"

let fleet_fault_of = function
  | "crash" -> F_crash
  | "restart" -> F_restart
  | "partition" -> F_partition
  | "heal" -> F_heal
  | s -> raise (J.Parse_error ("unknown fleet fault " ^ s))

let tag name fields = J.Obj (("cmd", J.jstr name) :: fields)

let to_json = function
  | Hello { version } -> tag "hello" [ ("version", J.jint version) ]
  | Topo { dot } -> tag "topo" [ ("dot", J.jbool dot) ]
  | Ping { src; dst; count; load } ->
    tag "ping"
      [ ("src", J.jstr src); ("dst", J.jstr dst); ("count", J.jint count); ("load", J.jbool load) ]
  | Path_trace { src; dst; load } ->
    tag "trace" [ ("src", J.jstr src); ("dst", J.jstr dst); ("load", J.jbool load) ]
  | Perf { src; dst; load } ->
    tag "perf" [ ("src", J.jstr src); ("dst", J.jstr dst); ("load", J.jbool load) ]
  | Dump { a; b; load } -> tag "dump" [ ("a", J.jstr a); ("b", J.jstr b); ("load", J.jbool load) ]
  | Check -> tag "check" []
  | Heartbeat { degrade } -> tag "heartbeat" [ ("degrade", J.jopt J.jpair degrade) ]
  | Heal { src; dst; gbps; fault; factor; silent; flap; ms } ->
    tag "heal"
      [ ("src", J.jstr src); ("dst", J.jstr dst); ("gbps", J.jfloat gbps);
        ("fault", J.jopt J.jpair fault); ("factor", J.jfloat factor); ("silent", J.jbool silent);
        ("flap", J.jopt J.jint flap); ("ms", J.jfloat ms) ]
  | Scenario_list -> tag "scenario_list" []
  | Scenario { name; ms; protect } ->
    tag "scenario"
      [ ("name", J.jstr name); ("ms", J.jfloat ms); ("protect", J.jopt J.jfloat protect) ]
  | Monitor { ms; period_us; series; load } ->
    tag "monitor"
      [ ("ms", J.jfloat ms); ("period_us", J.jfloat period_us);
        ("series", J.jopt J.jstr series); ("load", J.jbool load) ]
  | Report { fidelity; load } ->
    tag "report" [ ("fidelity", J.jstr (fidelity_label fidelity)); ("load", J.jbool load) ]
  | Plan { pipes; hoses; headroom } ->
    tag "plan"
      [ ( "pipes",
          J.Arr
            (List.map
               (fun (s, d, g) -> J.Arr [ J.jstr s; J.jstr d; J.jfloat g ])
               pipes) );
        ( "hoses",
          J.Arr
            (List.map
               (fun (e, i, o) -> J.Arr [ J.jstr e; J.jfloat i; J.jfloat o ])
               hoses) );
        ("headroom", J.jfloat headroom) ]
  | Latency { link; ms; load } ->
    tag "latency" [ ("link", J.jbool link); ("ms", J.jfloat ms); ("load", J.jbool load) ]
  | Scan { ms; load; step; snapshot } ->
    tag "scan"
      [ ("ms", J.jfloat ms); ("load", J.jbool load); ("step", J.jopt J.jint step);
        ("snapshot", J.jbool snapshot) ]
  | Run_for { ms } -> tag "run_for" [ ("ms", J.jfloat ms) ]
  | Flow_start { tenant; src; dst; gbps } ->
    tag "flow_start"
      [ ("tenant", J.jint tenant); ("src", J.jstr src); ("dst", J.jstr dst);
        ("gbps", J.jopt J.jfloat gbps) ]
  | Flow_stop { flow } -> tag "flow_stop" [ ("flow", J.jint flow) ]
  | Submit i -> tag "submit" [ ("intent", intent_to_json i) ]
  | Fault_inject { a; b; factor; extra_us; loss } ->
    tag "fault_inject"
      [ ("a", J.jstr a); ("b", J.jstr b); ("factor", J.jfloat factor);
        ("extra_us", J.jfloat extra_us); ("loss", J.jfloat loss) ]
  | Fault_clear { a; b } -> tag "fault_clear" [ ("a", J.jstr a); ("b", J.jstr b) ]
  | Faults_clear_all -> tag "faults_clear_all" []
  | Subscribe s -> tag "subscribe" [ ("stream", J.jstr (stream_label s)) ]
  | Stats -> tag "stats" []
  | Shutdown -> tag "shutdown" []
  | Fleet_spawn { name; preset } ->
    tag "fleet_spawn" [ ("name", J.jstr name); ("preset", J.jstr preset) ]
  | Fleet_submit i -> tag "fleet_submit" [ ("intent", intent_to_json i) ]
  | Fleet_run { rounds } -> tag "fleet_run" [ ("rounds", J.jint rounds) ]
  | Fleet_status { decisions } -> tag "fleet_status" [ ("decisions", J.jbool decisions) ]
  | Fleet_fault { host; what } ->
    tag "fleet_fault" [ ("host", J.jstr host); ("what", J.jstr (fleet_fault_label what)) ]
  | Fleet_loss { host; loss } -> tag "fleet_loss" [ ("host", J.jstr host); ("loss", J.jfloat loss) ]

let of_json j =
  let str k = J.as_string (J.field j k) in
  let num k = J.as_float (J.field j k) in
  let int k = J.as_int (J.field j k) in
  let bool k = J.as_bool (J.field j k) in
  let opt k f = J.opt_of (J.field j k) f in
  match
    match J.as_string (J.field j "cmd") with
    | "hello" -> Hello { version = int "version" }
    | "topo" -> Topo { dot = bool "dot" }
    | "ping" -> Ping { src = str "src"; dst = str "dst"; count = int "count"; load = bool "load" }
    | "trace" -> Path_trace { src = str "src"; dst = str "dst"; load = bool "load" }
    | "perf" -> Perf { src = str "src"; dst = str "dst"; load = bool "load" }
    | "dump" -> Dump { a = str "a"; b = str "b"; load = bool "load" }
    | "check" -> Check
    | "heartbeat" -> Heartbeat { degrade = opt "degrade" J.pair_of }
    | "heal" ->
      Heal
        { src = str "src"; dst = str "dst"; gbps = num "gbps"; fault = opt "fault" J.pair_of;
          factor = num "factor"; silent = bool "silent"; flap = opt "flap" J.as_int;
          ms = num "ms" }
    | "scenario_list" -> Scenario_list
    | "scenario" -> Scenario { name = str "name"; ms = num "ms"; protect = opt "protect" J.as_float }
    | "monitor" ->
      Monitor
        { ms = num "ms"; period_us = num "period_us"; series = opt "series" J.as_string;
          load = bool "load" }
    | "report" -> Report { fidelity = fidelity_of (str "fidelity"); load = bool "load" }
    | "plan" ->
      Plan
        { pipes =
            List.map
              (function
                | J.Arr [ s; d; g ] -> (J.as_string s, J.as_string d, J.as_float g)
                | _ -> raise (J.Parse_error "bad pipe"))
              (J.as_list (J.field j "pipes"));
          hoses =
            List.map
              (function
                | J.Arr [ e; i; o ] -> (J.as_string e, J.as_float i, J.as_float o)
                | _ -> raise (J.Parse_error "bad hose"))
              (J.as_list (J.field j "hoses"));
          headroom = num "headroom" }
    | "latency" -> Latency { link = bool "link"; ms = num "ms"; load = bool "load" }
    | "scan" ->
      Scan { ms = num "ms"; load = bool "load"; step = opt "step" J.as_int;
             snapshot = bool "snapshot" }
    | "run_for" -> Run_for { ms = num "ms" }
    | "flow_start" ->
      Flow_start
        { tenant = int "tenant"; src = str "src"; dst = str "dst";
          gbps = opt "gbps" J.as_float }
    | "flow_stop" -> Flow_stop { flow = int "flow" }
    | "submit" -> Submit (intent_of_json (J.field j "intent"))
    | "fault_inject" ->
      Fault_inject
        { a = str "a"; b = str "b"; factor = num "factor"; extra_us = num "extra_us";
          loss = num "loss" }
    | "fault_clear" -> Fault_clear { a = str "a"; b = str "b" }
    | "faults_clear_all" -> Faults_clear_all
    | "subscribe" -> Subscribe (stream_of (str "stream"))
    | "stats" -> Stats
    | "shutdown" -> Shutdown
    | "fleet_spawn" -> Fleet_spawn { name = str "name"; preset = str "preset" }
    | "fleet_submit" -> Fleet_submit (intent_of_json (J.field j "intent"))
    | "fleet_run" -> Fleet_run { rounds = int "rounds" }
    | "fleet_status" -> Fleet_status { decisions = bool "decisions" }
    | "fleet_fault" -> Fleet_fault { host = str "host"; what = fleet_fault_of (str "what") }
    | "fleet_loss" -> Fleet_loss { host = str "host"; loss = num "loss" }
    | s -> raise (J.Parse_error ("unknown command tag " ^ s))
  with
  | c -> Ok c
  | exception J.Parse_error e -> Error e
