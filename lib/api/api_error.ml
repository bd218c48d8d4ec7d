module J = Ihnet_record.Trace
module M = Ihnet_manager.Mgr_error

type t =
  | Mgr of M.t
  | Invalid of string
  | Failed of string
  | Protocol of string
  | Unsupported of string

exception Error of t

let exit_code = function
  | Invalid _ | Failed _ -> 1
  | Protocol _ -> 3
  | Unsupported _ -> 4
  | Mgr m -> (
    match m with
    | M.Invalid_intent _ -> 10
    | M.Unknown_device _ -> 11
    | M.No_home_socket _ -> 12
    | M.No_path _ -> 13
    | M.No_uplink _ -> 14
    | M.No_downlink _ -> 15
    | M.Capacity_exhausted _ -> 16
    | M.Not_a_pipe -> 17
    | M.No_alternate_path -> 18
    | M.Host_unreachable _ -> 19
    | M.Retries_exhausted _ -> 20
    | M.No_feasible_host _ -> 21)

let message = function
  | Mgr m -> M.to_string m
  | Invalid s | Failed s | Protocol s | Unsupported s -> s

let mgr_to_json m =
  let tag name fields = J.Obj (("mgr", J.jstr name) :: fields) in
  match m with
  | M.Invalid_intent s -> tag "invalid_intent" [ ("what", J.jstr s) ]
  | M.Unknown_device s -> tag "unknown_device" [ ("device", J.jstr s) ]
  | M.No_home_socket { device; socket } ->
    tag "no_home_socket" [ ("device", J.jstr device); ("socket", J.jstr socket) ]
  | M.No_path { src; dst } -> tag "no_path" [ ("src", J.jstr src); ("dst", J.jstr dst) ]
  | M.No_uplink s -> tag "no_uplink" [ ("endpoint", J.jstr s) ]
  | M.No_downlink s -> tag "no_downlink" [ ("endpoint", J.jstr s) ]
  | M.Capacity_exhausted { tenant; rate; best_ratio } ->
    tag "capacity_exhausted"
      [ ("tenant", J.jint tenant); ("rate", J.jfloat rate);
        ("best_ratio", J.jfloat best_ratio) ]
  | M.Not_a_pipe -> tag "not_a_pipe" []
  | M.No_alternate_path -> tag "no_alternate_path" []
  | M.Host_unreachable h -> tag "host_unreachable" [ ("host", J.jstr h) ]
  | M.Retries_exhausted { host; command } ->
    tag "retries_exhausted" [ ("host", J.jstr host); ("command", J.jstr command) ]
  | M.No_feasible_host { tenant } -> tag "no_feasible_host" [ ("tenant", J.jint tenant) ]

let mgr_of_json j =
  let str k = J.as_string (J.field j k) in
  match J.as_string (J.field j "mgr") with
  | "invalid_intent" -> M.Invalid_intent (str "what")
  | "unknown_device" -> M.Unknown_device (str "device")
  | "no_home_socket" -> M.No_home_socket { device = str "device"; socket = str "socket" }
  | "no_path" -> M.No_path { src = str "src"; dst = str "dst" }
  | "no_uplink" -> M.No_uplink (str "endpoint")
  | "no_downlink" -> M.No_downlink (str "endpoint")
  | "capacity_exhausted" ->
    M.Capacity_exhausted
      { tenant = J.as_int (J.field j "tenant");
        rate = J.as_float (J.field j "rate");
        best_ratio = J.as_float (J.field j "best_ratio") }
  | "not_a_pipe" -> M.Not_a_pipe
  | "no_alternate_path" -> M.No_alternate_path
  | "host_unreachable" -> M.Host_unreachable (str "host")
  | "retries_exhausted" -> M.Retries_exhausted { host = str "host"; command = str "command" }
  | "no_feasible_host" -> M.No_feasible_host { tenant = J.as_int (J.field j "tenant") }
  | s -> raise (J.Parse_error ("unknown mgr error tag " ^ s))

let to_json = function
  | Mgr m -> J.Obj [ ("err", J.jstr "mgr"); ("payload", mgr_to_json m) ]
  | Invalid s -> J.Obj [ ("err", J.jstr "invalid"); ("msg", J.jstr s) ]
  | Failed s -> J.Obj [ ("err", J.jstr "failed"); ("msg", J.jstr s) ]
  | Protocol s -> J.Obj [ ("err", J.jstr "protocol"); ("msg", J.jstr s) ]
  | Unsupported s -> J.Obj [ ("err", J.jstr "unsupported"); ("msg", J.jstr s) ]

let of_json j =
  match
    match J.as_string (J.field j "err") with
    | "mgr" -> Mgr (mgr_of_json (J.field j "payload"))
    | "invalid" -> Invalid (J.as_string (J.field j "msg"))
    | "failed" -> Failed (J.as_string (J.field j "msg"))
    | "protocol" -> Protocol (J.as_string (J.field j "msg"))
    | "unsupported" -> Unsupported (J.as_string (J.field j "msg"))
    | s -> raise (J.Parse_error ("unknown error tag " ^ s))
  with
  | e -> Ok e
  | exception J.Parse_error e -> Error e

let wrap f =
  match f () with
  | v -> Ok v
  | exception Error e -> Error e
  | exception Invalid_argument s -> Error (Invalid s)
  | exception Failure s -> Error (Failed s)
