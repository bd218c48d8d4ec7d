type t = { ddio : Ihnet_topology.Hostconfig.ddio }

let create ddio = { ddio }

(* Assumed producer→consumer delay for DMA'd data (100 µs: a busy
   application polls its rings within tens of microseconds).
   Calibrated so a single ~28 GB/s DDIO writer just fits the default
   2-way/3 MiB I/O partition while two concurrent writers thrash it —
   the §2 scenario. *)
let reuse_window = 100_000.0
let enabled t = match t.ddio with Ihnet_topology.Hostconfig.Ddio_off -> false | _ -> true

(* bytes the I/O ways hold; 0 when DDIO is off *)
let capacity_bytes t =
  match t.ddio with
  | Ihnet_topology.Hostconfig.Ddio_off -> 0.0
  | Ihnet_topology.Hostconfig.Ddio_on { io_ways; way_size; _ } ->
    float_of_int io_ways *. way_size

let hit_rate t ~write_rate =
  match t.ddio with
  | Ihnet_topology.Hostconfig.Ddio_off -> 0.0
  | Ihnet_topology.Hostconfig.Ddio_on _ ->
    if write_rate <= 0.0 then 1.0
    else begin
      let needed = write_rate *. (reuse_window /. 1e9) in
      Float.min 1.0 (capacity_bytes t /. needed)
    end

let spill_rate t ~write_rate =
  if write_rate <= 0.0 then 0.0
  else
    match t.ddio with
    | Ihnet_topology.Hostconfig.Ddio_off -> write_rate
    | Ihnet_topology.Hostconfig.Ddio_on _ ->
      let h = hit_rate t ~write_rate in
      (1.0 -. h) *. write_rate *. 2.0
