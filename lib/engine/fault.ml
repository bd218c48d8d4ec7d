type link_fault = {
  capacity_factor : float;
  extra_latency : Ihnet_util.Units.ns;
  loss_prob : float;
}

type t = (Ihnet_topology.Link.id, link_fault) Hashtbl.t

let create () = Hashtbl.create 8
let healthy = { capacity_factor = 1.0; extra_latency = 0.0; loss_prob = 0.0 }

(* Real raises, not [assert]: a fault can come from a wire frame or a
   replayed trace, and the [not (...)] form also rejects NaN. *)
let inject t id f =
  let bad fmt = Printf.ksprintf invalid_arg ("Fault.inject: " ^^ fmt) in
  if not (f.capacity_factor >= 0.0 && f.capacity_factor <= 1.0) then
    bad "capacity_factor must be in [0, 1] (got %g)" f.capacity_factor;
  if not (f.loss_prob >= 0.0 && f.loss_prob <= 1.0) then
    bad "loss_prob must be in [0, 1] (got %g)" f.loss_prob;
  if not (f.extra_latency >= 0.0) then bad "extra_latency must be >= 0 (got %g)" f.extra_latency;
  Hashtbl.replace t id f

let clear t id = Hashtbl.remove t id
let clear_all t = Hashtbl.reset t
let get t id = Option.value ~default:healthy (Hashtbl.find_opt t id)

let degrade ~capacity_factor ?(extra_latency = 0.0) () =
  { capacity_factor; extra_latency; loss_prob = 0.0 }

let down = { capacity_factor = 0.0; extra_latency = 0.0; loss_prob = 1.0 }

let describe f =
  let parts =
    (if f.capacity_factor < 1.0 then [ Printf.sprintf "capacity x%.2f" f.capacity_factor ] else [])
    @ (if f.extra_latency > 0.0 then [ Printf.sprintf "+%.0f ns latency" f.extra_latency ] else [])
    @ if f.loss_prob > 0.0 then [ Printf.sprintf "loss %.0f%%" (100.0 *. f.loss_prob) ] else []
  in
  if parts = [] then "no-op" else String.concat ", " parts
