type target =
  | Pipe of { src : string; dst : string; rate : float }
  | Hose of { endpoint : string; to_host : float; from_host : float }

type t = {
  tenant : int;
  targets : target list;
  latency_bound : Ihnet_util.Units.ns option;
  p99_bound : Ihnet_util.Units.ns option;
  work_conserving : bool;
}

let pipe ~tenant ~src ~dst ~rate =
  {
    tenant;
    targets = [ Pipe { src; dst; rate } ];
    latency_bound = None;
    p99_bound = None;
    work_conserving = true;
  }

let hose ~tenant ~endpoint ~to_host ~from_host =
  {
    tenant;
    targets = [ Hose { endpoint; to_host; from_host } ];
    latency_bound = None;
    p99_bound = None;
    work_conserving = true;
  }

(* NaN fails every comparison, so the finiteness checks come first *)
let target_error = function
  | Pipe { rate; _ } when not (Float.is_finite rate) -> Some "intent target with non-finite rate"
  | Hose { to_host; from_host; _ } when not (Float.is_finite to_host && Float.is_finite from_host)
    ->
    Some "intent target with non-finite rate"
  | Pipe { rate; _ } when rate <= 0.0 -> Some "intent target with non-positive rate"
  | Hose { to_host; from_host; _ } when to_host < 0.0 || from_host < 0.0 || to_host +. from_host <= 0.0
    ->
    Some "intent target with non-positive rate"
  | Pipe _ | Hose _ -> None

let bound_error what = function
  | Some b when not (Float.is_finite b) -> Some ("non-finite " ^ what ^ " bound")
  | Some b when b <= 0.0 -> Some ("non-positive " ^ what ^ " bound")
  | Some _ | None -> None

let validate t =
  if t.targets = [] then Error "intent has no targets"
  else
    match
      List.find_map Fun.id
        (List.map target_error t.targets
        @ [ bound_error "latency" t.latency_bound; bound_error "p99" t.p99_bound ])
    with
    | Some why -> Error why
    | None -> Ok ()

let total_guaranteed t =
  List.fold_left
    (fun acc tgt ->
      acc
      +.
      match tgt with
      | Pipe { rate; _ } -> rate
      | Hose { to_host; from_host; _ } -> to_host +. from_host)
    0.0 t.targets

let pp ppf t =
  let target ppf = function
    | Pipe { src; dst; rate } ->
      Format.fprintf ppf "pipe %s->%s %a" src dst Ihnet_util.Units.pp_rate rate
    | Hose { endpoint; to_host; from_host } ->
      Format.fprintf ppf "hose %s in:%a out:%a" endpoint Ihnet_util.Units.pp_rate to_host
        Ihnet_util.Units.pp_rate from_host
  in
  Format.fprintf ppf "tenant %d {%a}%s" t.tenant
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") target)
    t.targets
    (if t.work_conserving then " wc" else "")
