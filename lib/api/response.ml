module J = Ihnet_record.Trace

type link_row = {
  l_id : int;
  l_kind : string;
  l_a : string;
  l_b : string;
  l_capacity : float;
  l_latency : float;
}

type trace_hop = {
  h_device : string;
  h_kind : string;
  h_class : int option;
  h_base : float;
  h_loaded : float;
  h_util : float;
}

type dump_row = {
  f_id : int;
  f_tenant : int;
  f_cls : string;
  f_src : string;
  f_dst : string;
  f_rate : float;
}

type suspect_row = { su_a : string; su_b : string; su_score : float }

type sketch_row = {
  lr_id : int;
  lr_route : string;
  lr_dir : string;
  lr_count : int;
  lr_p50 : float;
  lr_p99 : float;
  lr_p999 : float;
  lr_max : float;
}

type bottleneck_row = { bn_kind : string; bn_a : string; bn_b : string; bn_ratio : float }

type heal_info = {
  he_banner : string;
  he_rate : float;
  he_pre : float;
  he_post : float;
  he_ttd : float option;
  he_ttr : float option;
  he_status : string;
  he_timeline : string;
  he_slo : string;
}

type protect_info = {
  pr_note : string;
  pr_ms : float;
  pr_metrics : (string * string) list;
  pr_slo : string;
}

type scenario_info = {
  sc_name : string;
  sc_describe : string;
  sc_tenants : (int * string) list;
  sc_ms : float;
  sc_metrics : (string * string) list;
  sc_protect : protect_info option;
}

type scan_step = { st_n : int; st_epoch : int; st_digest : int64 }

type event =
  | Ev_telemetry of { ev_at : float; ev_epoch : int; ev_flows : int; ev_rate : float }
  | Ev_action of { ev_at : float; ev_link : int; ev_stage : string; ev_detail : string }
  | Ev_evidence of { ev_at : float; ev_link : int; ev_modality : string; ev_score : float }

type t =
  | Ack
  | Err of Api_error.t
  | Hello_ok of { version : int; mode : string; preset : string }
  | Event of event
  | Topo_report of { summary : string; config : string; links : link_row list }
  | Topo_dot of string
  | Ping_report of {
      src : string;
      dst : string;
      sent : int;
      lost : int;
      rtt : (float * float * float * float) option;
    }
  | Trace_report of { src : string; dst : string; hops : trace_hop list }
  | Perf_report of {
      src : string;
      dst : string;
      result : (float * float * float) option;
      bottleneck : (string * string * float) option;
    }
  | Dump_report of { a : string; b : string; found : bool; flows : dump_row list }
  | Check_report of string list
  | Heartbeat_report of {
      injected : (string * string) option;
      rounds : int;
      failing : int;
      first : float option;
      suspects : suspect_row list;
    }
  | Heal_report of heal_info
  | Scenario_names of (string * string) list
  | Scenario_unknown of string
  | Scenario_report of scenario_info
  | Csv of string
  | Health of string
  | Plan_report of {
      intents : int;
      headroom : float;
      fits : bool;
      scale : float;
      bottlenecks : bottleneck_row list;
    }
  | Latency_report of { flow : string option; link_table : bool; links : sketch_row list }
  | Scan_report of {
      epoch : int;
      regs : int;
      digest : int64;
      steps : scan_step list;
      drained : int option;
      snapshot : J.json option;
    }
  | Flow_ok of { flow : int }
  | Submit_ok of { tenant : int; placements : string list }
  | Stats_report of {
      now : float;
      epoch : int;
      flows : int;
      rate : float;
      reallocs : int;
      clients : int;
      commands : int;
    }
  | Fleet_status_report of {
      hosts : int;
      rounds : int;
      digest : int64;
      decisions : int64;
      text : string;
      decision_log : string list;
    }
  | Bye

(* {1 Codec} *)

let jkvs kvs = J.Arr (List.map J.jpair kvs)
let kvs_of j = List.map J.pair_of (J.as_list j)
let jstrs ss = J.Arr (List.map J.jstr ss)
let strs_of j = List.map J.as_string (J.as_list j)

let link_row_to_json r =
  J.Obj
    [ ("id", J.jint r.l_id); ("kind", J.jstr r.l_kind); ("a", J.jstr r.l_a); ("b", J.jstr r.l_b);
      ("capacity", J.jfloat r.l_capacity); ("latency", J.jfloat r.l_latency) ]

let link_row_of_json j =
  { l_id = J.as_int (J.field j "id"); l_kind = J.as_string (J.field j "kind");
    l_a = J.as_string (J.field j "a"); l_b = J.as_string (J.field j "b");
    l_capacity = J.as_float (J.field j "capacity"); l_latency = J.as_float (J.field j "latency") }

let hop_to_json h =
  J.Obj
    [ ("device", J.jstr h.h_device); ("kind", J.jstr h.h_kind);
      ("class", J.jopt J.jint h.h_class); ("base", J.jfloat h.h_base);
      ("loaded", J.jfloat h.h_loaded); ("util", J.jfloat h.h_util) ]

let hop_of_json j =
  { h_device = J.as_string (J.field j "device"); h_kind = J.as_string (J.field j "kind");
    h_class = J.opt_of (J.field j "class") J.as_int; h_base = J.as_float (J.field j "base");
    h_loaded = J.as_float (J.field j "loaded"); h_util = J.as_float (J.field j "util") }

let dump_row_to_json r =
  J.Obj
    [ ("id", J.jint r.f_id); ("tenant", J.jint r.f_tenant); ("cls", J.jstr r.f_cls);
      ("src", J.jstr r.f_src); ("dst", J.jstr r.f_dst); ("rate", J.jfloat r.f_rate) ]

let dump_row_of_json j =
  { f_id = J.as_int (J.field j "id"); f_tenant = J.as_int (J.field j "tenant");
    f_cls = J.as_string (J.field j "cls"); f_src = J.as_string (J.field j "src");
    f_dst = J.as_string (J.field j "dst"); f_rate = J.as_float (J.field j "rate") }

let suspect_to_json s =
  J.Obj [ ("a", J.jstr s.su_a); ("b", J.jstr s.su_b); ("score", J.jfloat s.su_score) ]

let suspect_of_json j =
  { su_a = J.as_string (J.field j "a"); su_b = J.as_string (J.field j "b");
    su_score = J.as_float (J.field j "score") }

let sketch_row_to_json r =
  J.Obj
    [ ("id", J.jint r.lr_id); ("route", J.jstr r.lr_route); ("dir", J.jstr r.lr_dir);
      ("count", J.jint r.lr_count); ("p50", J.jfloat r.lr_p50); ("p99", J.jfloat r.lr_p99);
      ("p999", J.jfloat r.lr_p999); ("max", J.jfloat r.lr_max) ]

let sketch_row_of_json j =
  { lr_id = J.as_int (J.field j "id"); lr_route = J.as_string (J.field j "route");
    lr_dir = J.as_string (J.field j "dir"); lr_count = J.as_int (J.field j "count");
    lr_p50 = J.as_float (J.field j "p50"); lr_p99 = J.as_float (J.field j "p99");
    lr_p999 = J.as_float (J.field j "p999"); lr_max = J.as_float (J.field j "max") }

let bottleneck_to_json b =
  J.Obj
    [ ("kind", J.jstr b.bn_kind); ("a", J.jstr b.bn_a); ("b", J.jstr b.bn_b);
      ("ratio", J.jfloat b.bn_ratio) ]

let bottleneck_of_json j =
  { bn_kind = J.as_string (J.field j "kind"); bn_a = J.as_string (J.field j "a");
    bn_b = J.as_string (J.field j "b"); bn_ratio = J.as_float (J.field j "ratio") }

let heal_to_json h =
  J.Obj
    [ ("banner", J.jstr h.he_banner); ("rate", J.jfloat h.he_rate); ("pre", J.jfloat h.he_pre);
      ("post", J.jfloat h.he_post); ("ttd", J.jopt J.jfloat h.he_ttd);
      ("ttr", J.jopt J.jfloat h.he_ttr); ("status", J.jstr h.he_status);
      ("timeline", J.jstr h.he_timeline); ("slo", J.jstr h.he_slo) ]

let heal_of_json j =
  { he_banner = J.as_string (J.field j "banner"); he_rate = J.as_float (J.field j "rate");
    he_pre = J.as_float (J.field j "pre"); he_post = J.as_float (J.field j "post");
    he_ttd = J.opt_of (J.field j "ttd") J.as_float; he_ttr = J.opt_of (J.field j "ttr") J.as_float;
    he_status = J.as_string (J.field j "status");
    he_timeline = J.as_string (J.field j "timeline"); he_slo = J.as_string (J.field j "slo") }

let protect_to_json p =
  J.Obj
    [ ("note", J.jstr p.pr_note); ("ms", J.jfloat p.pr_ms); ("metrics", jkvs p.pr_metrics);
      ("slo", J.jstr p.pr_slo) ]

let protect_of_json j =
  { pr_note = J.as_string (J.field j "note"); pr_ms = J.as_float (J.field j "ms");
    pr_metrics = kvs_of (J.field j "metrics"); pr_slo = J.as_string (J.field j "slo") }

let scenario_to_json s =
  J.Obj
    [ ("name", J.jstr s.sc_name); ("describe", J.jstr s.sc_describe);
      ( "tenants",
        J.Arr (List.map (fun (i, r) -> J.Arr [ J.jint i; J.jstr r ]) s.sc_tenants) );
      ("ms", J.jfloat s.sc_ms); ("metrics", jkvs s.sc_metrics);
      ("protect", J.jopt protect_to_json s.sc_protect) ]

let scenario_of_json j =
  { sc_name = J.as_string (J.field j "name");
    sc_describe = J.as_string (J.field j "describe");
    sc_tenants =
      List.map
        (function
          | J.Arr [ i; r ] -> (J.as_int i, J.as_string r)
          | _ -> raise (J.Parse_error "bad tenant row"))
        (J.as_list (J.field j "tenants"));
    sc_ms = J.as_float (J.field j "ms"); sc_metrics = kvs_of (J.field j "metrics");
    sc_protect = J.opt_of (J.field j "protect") protect_of_json }

let step_to_json s =
  J.Obj [ ("n", J.jint s.st_n); ("epoch", J.jint s.st_epoch); ("digest", J.jhash s.st_digest) ]

let step_of_json j =
  { st_n = J.as_int (J.field j "n"); st_epoch = J.as_int (J.field j "epoch");
    st_digest = J.as_hash (J.field j "digest") }

let event_to_json = function
  | Ev_telemetry { ev_at; ev_epoch; ev_flows; ev_rate } ->
    J.Obj
      [ ("ev", J.jstr "telemetry"); ("at", J.jfloat ev_at); ("epoch", J.jint ev_epoch);
        ("flows", J.jint ev_flows); ("rate", J.jfloat ev_rate) ]
  | Ev_action { ev_at; ev_link; ev_stage; ev_detail } ->
    J.Obj
      [ ("ev", J.jstr "action"); ("at", J.jfloat ev_at); ("link", J.jint ev_link);
        ("stage", J.jstr ev_stage); ("detail", J.jstr ev_detail) ]
  | Ev_evidence { ev_at; ev_link; ev_modality; ev_score } ->
    J.Obj
      [ ("ev", J.jstr "evidence"); ("at", J.jfloat ev_at); ("link", J.jint ev_link);
        ("modality", J.jstr ev_modality); ("score", J.jfloat ev_score) ]

let event_of_json j =
  match J.as_string (J.field j "ev") with
  | "telemetry" ->
    Ev_telemetry
      { ev_at = J.as_float (J.field j "at"); ev_epoch = J.as_int (J.field j "epoch");
        ev_flows = J.as_int (J.field j "flows"); ev_rate = J.as_float (J.field j "rate") }
  | "action" ->
    Ev_action
      { ev_at = J.as_float (J.field j "at"); ev_link = J.as_int (J.field j "link");
        ev_stage = J.as_string (J.field j "stage");
        ev_detail = J.as_string (J.field j "detail") }
  | "evidence" ->
    Ev_evidence
      { ev_at = J.as_float (J.field j "at"); ev_link = J.as_int (J.field j "link");
        ev_modality = J.as_string (J.field j "modality");
        ev_score = J.as_float (J.field j "score") }
  | s -> raise (J.Parse_error ("unknown event tag " ^ s))

let tag name fields = J.Obj (("resp", J.jstr name) :: fields)

let to_json = function
  | Ack -> tag "ack" []
  | Err e -> tag "err" [ ("error", Api_error.to_json e) ]
  | Hello_ok { version; mode; preset } ->
    tag "hello_ok"
      [ ("version", J.jint version); ("mode", J.jstr mode); ("preset", J.jstr preset) ]
  | Event e -> tag "event" [ ("event", event_to_json e) ]
  | Topo_report { summary; config; links } ->
    tag "topo"
      [ ("summary", J.jstr summary); ("config", J.jstr config);
        ("links", J.Arr (List.map link_row_to_json links)) ]
  | Topo_dot s -> tag "topo_dot" [ ("dot", J.jstr s) ]
  | Ping_report { src; dst; sent; lost; rtt } ->
    tag "ping"
      [ ("src", J.jstr src); ("dst", J.jstr dst); ("sent", J.jint sent); ("lost", J.jint lost);
        ( "rtt",
          J.jopt
            (fun (mn, p50, p99, mx) ->
              J.Arr [ J.jfloat mn; J.jfloat p50; J.jfloat p99; J.jfloat mx ])
            rtt ) ]
  | Trace_report { src; dst; hops } ->
    tag "trace"
      [ ("src", J.jstr src); ("dst", J.jstr dst); ("hops", J.Arr (List.map hop_to_json hops)) ]
  | Perf_report { src; dst; result; bottleneck } ->
    tag "perf"
      [ ("src", J.jstr src); ("dst", J.jstr dst);
        ( "result",
          J.jopt (fun (b, d, r) -> J.Arr [ J.jfloat b; J.jfloat d; J.jfloat r ]) result );
        ( "bottleneck",
          J.jopt (fun (a, b, u) -> J.Arr [ J.jstr a; J.jstr b; J.jfloat u ]) bottleneck ) ]
  | Dump_report { a; b; found; flows } ->
    tag "dump"
      [ ("a", J.jstr a); ("b", J.jstr b); ("found", J.jbool found);
        ("flows", J.Arr (List.map dump_row_to_json flows)) ]
  | Check_report findings -> tag "check" [ ("findings", jstrs findings) ]
  | Heartbeat_report { injected; rounds; failing; first; suspects } ->
    tag "heartbeat"
      [ ("injected", J.jopt J.jpair injected); ("rounds", J.jint rounds);
        ("failing", J.jint failing); ("first", J.jopt J.jfloat first);
        ("suspects", J.Arr (List.map suspect_to_json suspects)) ]
  | Heal_report h -> tag "heal" [ ("heal", heal_to_json h) ]
  | Scenario_names names -> tag "scenario_names" [ ("names", jkvs names) ]
  | Scenario_unknown name -> tag "scenario_unknown" [ ("name", J.jstr name) ]
  | Scenario_report s -> tag "scenario" [ ("scenario", scenario_to_json s) ]
  | Csv s -> tag "csv" [ ("csv", J.jstr s) ]
  | Health s -> tag "health" [ ("text", J.jstr s) ]
  | Plan_report { intents; headroom; fits; scale; bottlenecks } ->
    tag "plan"
      [ ("intents", J.jint intents); ("headroom", J.jfloat headroom); ("fits", J.jbool fits);
        ("scale", J.jfloat scale);
        ("bottlenecks", J.Arr (List.map bottleneck_to_json bottlenecks)) ]
  | Latency_report { flow; link_table; links } ->
    tag "latency"
      [ ("flow", J.jopt J.jstr flow); ("link_table", J.jbool link_table);
        ("links", J.Arr (List.map sketch_row_to_json links)) ]
  | Scan_report { epoch; regs; digest; steps; drained; snapshot } ->
    tag "scan"
      [ ("epoch", J.jint epoch); ("regs", J.jint regs); ("digest", J.jhash digest);
        ("steps", J.Arr (List.map step_to_json steps)); ("drained", J.jopt J.jint drained);
        ("snapshot", J.jopt (fun s -> s) snapshot) ]
  | Flow_ok { flow } -> tag "flow_ok" [ ("flow", J.jint flow) ]
  | Submit_ok { tenant; placements } ->
    tag "submit_ok" [ ("tenant", J.jint tenant); ("placements", jstrs placements) ]
  | Stats_report { now; epoch; flows; rate; reallocs; clients; commands } ->
    tag "stats"
      [ ("now", J.jfloat now); ("epoch", J.jint epoch); ("flows", J.jint flows);
        ("rate", J.jfloat rate); ("reallocs", J.jint reallocs); ("clients", J.jint clients);
        ("commands", J.jint commands) ]
  | Fleet_status_report { hosts; rounds; digest; decisions; text; decision_log } ->
    tag "fleet_status"
      [ ("hosts", J.jint hosts); ("rounds", J.jint rounds); ("digest", J.jhash digest);
        ("decisions", J.jhash decisions); ("text", J.jstr text);
        ("decision_log", jstrs decision_log) ]
  | Bye -> tag "bye" []

let of_json j =
  let str k = J.as_string (J.field j k) in
  let int k = J.as_int (J.field j k) in
  let num k = J.as_float (J.field j k) in
  let bool k = J.as_bool (J.field j k) in
  let opt k f = J.opt_of (J.field j k) f in
  let list k f = List.map f (J.as_list (J.field j k)) in
  match
    match J.as_string (J.field j "resp") with
    | "ack" -> Ack
    | "err" -> (
      match Api_error.of_json (J.field j "error") with
      | Ok e -> Err e
      | Error e -> raise (J.Parse_error e))
    | "hello_ok" -> Hello_ok { version = int "version"; mode = str "mode"; preset = str "preset" }
    | "event" -> Event (event_of_json (J.field j "event"))
    | "topo" ->
      Topo_report
        { summary = str "summary"; config = str "config"; links = list "links" link_row_of_json }
    | "topo_dot" -> Topo_dot (str "dot")
    | "ping" ->
      Ping_report
        { src = str "src"; dst = str "dst"; sent = int "sent"; lost = int "lost";
          rtt =
            opt "rtt" (function
              | J.Arr [ mn; p50; p99; mx ] ->
                (J.as_float mn, J.as_float p50, J.as_float p99, J.as_float mx)
              | _ -> raise (J.Parse_error "bad rtt")) }
    | "trace" -> Trace_report { src = str "src"; dst = str "dst"; hops = list "hops" hop_of_json }
    | "perf" ->
      Perf_report
        { src = str "src"; dst = str "dst";
          result =
            opt "result" (function
              | J.Arr [ b; d; r ] -> (J.as_float b, J.as_float d, J.as_float r)
              | _ -> raise (J.Parse_error "bad perf result"));
          bottleneck =
            opt "bottleneck" (function
              | J.Arr [ a; b; u ] -> (J.as_string a, J.as_string b, J.as_float u)
              | _ -> raise (J.Parse_error "bad bottleneck")) }
    | "dump" ->
      Dump_report
        { a = str "a"; b = str "b"; found = bool "found"; flows = list "flows" dump_row_of_json }
    | "check" -> Check_report (strs_of (J.field j "findings"))
    | "heartbeat" ->
      Heartbeat_report
        { injected = opt "injected" J.pair_of; rounds = int "rounds"; failing = int "failing";
          first = opt "first" J.as_float; suspects = list "suspects" suspect_of_json }
    | "heal" -> Heal_report (heal_of_json (J.field j "heal"))
    | "scenario_names" -> Scenario_names (kvs_of (J.field j "names"))
    | "scenario_unknown" -> Scenario_unknown (str "name")
    | "scenario" -> Scenario_report (scenario_of_json (J.field j "scenario"))
    | "csv" -> Csv (str "csv")
    | "health" -> Health (str "text")
    | "plan" ->
      Plan_report
        { intents = int "intents"; headroom = num "headroom"; fits = bool "fits";
          scale = num "scale"; bottlenecks = list "bottlenecks" bottleneck_of_json }
    | "latency" ->
      Latency_report
        { flow = opt "flow" J.as_string; link_table = bool "link_table";
          links = list "links" sketch_row_of_json }
    | "scan" ->
      Scan_report
        { epoch = int "epoch"; regs = int "regs"; digest = J.as_hash (J.field j "digest");
          steps = list "steps" step_of_json; drained = opt "drained" J.as_int;
          snapshot = opt "snapshot" (fun s -> s) }
    | "flow_ok" -> Flow_ok { flow = int "flow" }
    | "submit_ok" ->
      Submit_ok { tenant = int "tenant"; placements = strs_of (J.field j "placements") }
    | "stats" ->
      Stats_report
        { now = num "now"; epoch = int "epoch"; flows = int "flows"; rate = num "rate";
          reallocs = int "reallocs"; clients = int "clients"; commands = int "commands" }
    | "fleet_status" ->
      Fleet_status_report
        { hosts = int "hosts"; rounds = int "rounds"; digest = J.as_hash (J.field j "digest");
          decisions = J.as_hash (J.field j "decisions"); text = str "text";
          decision_log = strs_of (J.field j "decision_log") }
    | "bye" -> Bye
    | s -> raise (J.Parse_error ("unknown response tag " ^ s))
  with
  | r -> Ok r
  | exception J.Parse_error e -> Error e
