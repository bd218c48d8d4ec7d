type target = Device of Ihnet_topology.Device.id | Series of string

type sensor_fault = {
  stuck : bool;
  drift : float;
  drop_prob : float;
  dup_prob : float;
  skew : Ihnet_util.Units.ns;
  probe_loss : float;
  probe_slow : float;
}

type t = (target, sensor_fault) Hashtbl.t

let create () = Hashtbl.create 8

let none =
  {
    stuck = false;
    drift = 1.0;
    drop_prob = 0.0;
    dup_prob = 0.0;
    skew = 0.0;
    probe_loss = 0.0;
    probe_slow = 0.0;
  }

let is_none f = f = none

let stuck_at = { none with stuck = true }
let drifting ~factor = { none with drift = factor }
let lossy ~drop_prob ?(dup_prob = 0.0) () = { none with drop_prob; dup_prob }
let skewed ~skew = { none with skew }
let probe_corruption ~loss ?(slow = 0.0) () = { none with probe_loss = loss; probe_slow = slow }

(* probabilities of independent corruption sources combine as noisy-OR *)
let por a b = 1.0 -. ((1.0 -. a) *. (1.0 -. b))

let merge a b =
  {
    stuck = a.stuck || b.stuck;
    drift = a.drift *. b.drift;
    drop_prob = por a.drop_prob b.drop_prob;
    dup_prob = por a.dup_prob b.dup_prob;
    skew = a.skew +. b.skew;
    probe_loss = por a.probe_loss b.probe_loss;
    probe_slow = por a.probe_slow b.probe_slow;
  }

(* Every comparison is written so that NaN fails it. *)
let validate f =
  let bad fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let prob name p = if p >= 0.0 && p <= 1.0 then None else Some (name, p) in
  match
    List.find_map Fun.id
      [
        prob "drop_prob" f.drop_prob;
        prob "dup_prob" f.dup_prob;
        prob "probe_loss" f.probe_loss;
        prob "probe_slow" f.probe_slow;
      ]
  with
  | Some (name, p) -> bad "%s must be in [0, 1] (got %g)" name p
  | None ->
    if not (f.drift >= 0.0) then bad "drift must be >= 0 (got %g)" f.drift
    else if not (Float.is_finite f.skew) then bad "skew must be finite (got %g)" f.skew
    else Ok ()

let inject t target f =
  match validate f with
  | Ok () -> Hashtbl.replace t target f
  | Error e -> invalid_arg ("Sensorfault.inject: " ^ e)

let clear t target = Hashtbl.remove t target
let clear_all t = Hashtbl.reset t
let get t target = Option.value ~default:none (Hashtbl.find_opt t target)

let active t =
  Hashtbl.fold (fun tg f acc -> (tg, f) :: acc) t []
  |> List.sort (fun (a, _) (b, _) ->
         match (a, b) with
         | Device x, Device y -> compare x y
         | Device _, Series _ -> -1
         | Series _, Device _ -> 1
         | Series x, Series y -> compare x y)

let count t = Hashtbl.length t

let target_label = function
  | Device d -> Printf.sprintf "device %d" d
  | Series s -> Printf.sprintf "series %s" s

let describe f =
  let parts = ref [] in
  let add s = parts := s :: !parts in
  if f.probe_slow > 0.0 then add (Printf.sprintf "probe-slow %.0f%%" (100.0 *. f.probe_slow));
  if f.probe_loss > 0.0 then add (Printf.sprintf "probe-loss %.0f%%" (100.0 *. f.probe_loss));
  if f.skew <> 0.0 then add (Printf.sprintf "skew %.0fns" f.skew);
  if f.dup_prob > 0.0 then add (Printf.sprintf "dup %.0f%%" (100.0 *. f.dup_prob));
  if f.drop_prob > 0.0 then add (Printf.sprintf "drop %.0f%%" (100.0 *. f.drop_prob));
  if f.drift <> 1.0 then add (Printf.sprintf "drift x%.2f" f.drift);
  if f.stuck then add "stuck";
  if !parts = [] then "healthy" else String.concat ", " !parts
