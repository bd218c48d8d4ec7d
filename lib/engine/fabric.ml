module T = Ihnet_topology
module U = Ihnet_util

(* An active flow plus the allocator-facing view of it. [conn] is the
   connectivity footprint used to partition flows into contention
   components: the usage resources, plus — for LLC-targeted flows —
   the destination socket's virtual coupling resource and its memory
   links, because DDIO spill couples every LLC-targeted flow on a
   socket (and everything sharing the socket's memory bus) into one
   component. *)
type entry = {
  flow : Flow.t;
  conn : int array; (* the interned footprint: shared by every flow on it *)
  fp : int; (* the footprint's id *)
  uid : int; (* the usage vector's id *)
  mutable dc : int; (* the demand class's id: see [interns] *)
  mutable dem : Fairshare.demand;
      (* cached allocator view, whose [res]/[coeff] are the interned
         usage vector (hop order); rebuilt only when the flow's limits
         change, not on every reallocation *)
  trow : float array; (* per-resource cumulative bytes, owning tenant's row *)
  crow : float array; (* per-resource cumulative bytes, traffic class row *)
  mutable slot : int; (* contention-index slot, -1 when not registered *)
  mutable hpos : int; (* the slot of its completion key, -1 when it has none *)
}

(* The completion heap's keys, one per running bounded flow with a
   positive rate (see {2 The completion heap}) *)
type completions = {
  mutable at : float array; (* slot -> due time, absolute ns *)
  mutable seq : int array; (* slot -> sequence number the key was set at *)
  mutable ent : entry array; (* slot -> entry; [vacant ()] at and past [len] *)
  mutable len : int;
  mutable next_seq : int;
}

(* Per-socket memory fan-out used to stripe induced DDIO traffic: the
   resources and striped coefficients, hop order, in each direction. *)
type socket_mem = {
  to_res : int array; (* socket->DIMMs *)
  to_coeff : float array;
  from_res : int array; (* DIMMs->socket *)
  from_coeff : float array;
}

(* A path's usage: its resources and coefficients, hop order. *)
type usage = { ures : int array; ucoeff : float array }

(* Exact float equality: compares bits, so -0.0 <> 0.0 and any ULP
   counts (the recorder digests raw rate bits). [=] at type [int64]
   compares the bits unboxed; [Int64.equal] is a call that boxes them,
   four words per comparison. *)
let feq (a : float) (b : float) = Int64.bits_of_float a = Int64.bits_of_float b

let int_array_eq (a : int array) (b : int array) =
  a == b
  || (Array.length a = Array.length b
     &&
     let n = Array.length a in
     let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
     go 0)

let float_array_eq (a : float array) (b : float array) =
  a == b
  || (Array.length a = Array.length b
     &&
     let n = Array.length a in
     let rec go i = i >= n || (feq a.(i) b.(i) && go (i + 1)) in
     go 0)

let hash_ints h (a : int array) =
  let h = ref h in
  for i = 0 to Array.length a - 1 do
    h := (!h * 65599) + a.(i)
  done;
  !h land max_int

module Fp_tbl = Hashtbl.Make (struct
  type t = int array

  let equal = int_array_eq
  let hash a = hash_ints (Array.length a) a
end)

(* coefficients compare and hash by their bits *)
module Usage_tbl = Hashtbl.Make (struct
  type t = usage

  let equal a b = int_array_eq a.ures b.ures && float_array_eq a.ucoeff b.ucoeff

  let hash u =
    let h = ref (hash_ints (Array.length u.ures) u.ures) in
    for j = 0 to Array.length u.ucoeff - 1 do
      h := (!h * 65599) + Int64.to_int (Int64.bits_of_float u.ucoeff.(j))
    done;
    !h land max_int
end)

(* A demand class: a usage vector's id and the weight, floor and cap
   of the demands on it. Flows of one class hand the solver identical
   demands. The floats compare and hash by their bits. *)
type class_key = { k_uid : int; k_weight : float; k_floor : float; k_cap : float }

module Class_tbl = Hashtbl.Make (struct
  type t = class_key

  let equal a b =
    a.k_uid = b.k_uid && feq a.k_weight b.k_weight && feq a.k_floor b.k_floor && feq a.k_cap b.k_cap

  let hash k =
    let bits x = Int64.to_int (Int64.bits_of_float x) in
    let h = (k.k_uid * 65599) + bits k.k_weight in
    let h = (h * 65599) + bits k.k_floor in
    ((h * 65599) + bits k.k_cap) land max_int
end)

(* Interned footprints, usage vectors and demand classes, the
   footprints on each row of the contention index, and the solve
   scratch: made at a fabric's first start_flow (see [make_interns]). *)
type interns = {
  fp_ids : (int array * int) Fp_tbl.t; (* footprint -> (itself, id) *)
  mutable fp_refs : int array; (* id -> registered flows on it *)
  mutable fp_mark : int array; (* id -> walk generation that met it *)
  fp_free : int U.Vec.t; (* free ids, next to reuse last *)
  u_ids : (usage * int) Usage_tbl.t; (* usage vector -> (itself, id) *)
  u_vec : Fairshare.vectors; (* id -> the vector, as the solver reads it *)
  mutable u_refs : int array; (* id -> registered flows on it *)
  u_free : int U.Vec.t;
  row_fps : int array array; (* conn resource -> live footprints on its row *)
  row_nfp : int array; (* conn resource -> length of its [row_fps] *)
  dc_ids : int Class_tbl.t; (* demand class -> id *)
  mutable dc_refs : int array; (* id -> registered flows in it *)
  mutable dc_exp : int array; (* id -> E: each weight x coefficient product is a multiple of 2^E *)
  mutable dc_sum : float array; (* id -> sum of those products; infinity when uncertified *)
  mutable dc_mark : int array; (* id -> the compute that met it *)
  mutable dc_slot : int array; (* id -> its demand in that compute *)
  dc_free : int U.Vec.t;
  mutable dc_gen : int; (* compute counter, for [dc_mark] *)
  sk_exp : int array; (* socket -> [dc_exp] of its spill fan-outs *)
  sk_sum : float array; (* socket -> [dc_sum] of its spill fan-outs *)
  mutable solved : int; (* demands handed to the solver, cumulative *)
  (* one solve's demands (grow-only): usage id, weight, floor, cap,
     multiplicity, and the rates the solver writes; then each entry's
     demand and rate *)
  mutable s_usage : int array;
  mutable s_weight : float array;
  mutable s_floor : float array;
  mutable s_cap : float array;
  mutable s_mult : float array;
  mutable s_rates : float array;
  mutable e_slot : int array;
  mutable e_rates : float array;
}

(* [Fabric.batch]'s state. While [is_open], reallocation is deferred,
   and each resource the batch's commands pass to [reallocate] is noted
   once: flagged in [marks] (indexed like [res_slots]) and listed in
   [seeds]. Made at a fabric's first batch, so a fabric that never
   batches pays nothing for it. *)
type batch_scope = { mutable is_open : bool; marks : bool array; seeds : int U.Vec.t }

(* The always-on latency plane: one fixed-geometry sketch per (link,
   dir) resource plus one for end-to-end flow latencies. Off by default
   ([sketches = None]); recording is a pure observation of committed
   state, so enabling it never perturbs rates, events or digests. *)
type sketch_plane = {
  sk_links : U.Sketch.t array; (* indexed by resource (res_of) *)
  sk_flows : U.Sketch.t;
}

type t = {
  sim : Sim.t;
  topo : T.Topology.t;
  rng : U.Rng.t;
  faults : Fault.t;
  sensorfaults : Sensorfault.t;
  mutable cache : Cache.t;
  entries : (int, entry) Hashtbl.t; (* flow id -> entry *)
  mutable next_flow_id : int;
  mutable epoch : int;
  mutable last_update : float;
  mutable load : float array; (* per resource, maintained by reallocate *)
  mutable flows_on : int array; (* active flow count per resource *)
  (* induced DDIO traffic, per socket *)
  mutable ddio_write : float array;
  mutable ddio_hit : float array;
  mutable spill_wb : float array; (* write-back rate, socket->mem *)
  mutable spill_rr : float array; (* re-read rate, mem->socket *)
  socket_mems : socket_mem option array; (* indexed by socket number *)
  link_bytes : float array;
  tenant_rows : (int, float array) Hashtbl.t; (* tenant -> per-resource bytes *)
  cls_rows : float array array; (* cls index -> per-resource bytes *)
  induced_trow : float array; (* tenant 0's row, cached for the spill path *)
  mutable allocs : int;
  mutable scope : batch_scope option; (* None before the first batch *)
  mutable listeners : (event -> unit) list; (* registration order *)
  (* incremental allocation state *)
  nr : int; (* real (link, dir) resource count *)
  (* the contention index: per conn resource, the slots of its incident
     entries, oldest-registered first, in [res_slots.(r)]'s first
     [res_len.(r)] cells *)
  res_slots : int array array;
  res_len : int array;
  mutable slot_entry : entry array; (* slot -> entry; [vacant ()] when free *)
  mutable slot_mark : int array; (* slot -> component-BFS visit generation *)
  free_slots : int U.Vec.t; (* free slots, next to reuse last *)
  socket_of_res : int array; (* conn resource -> DDIO-coupled socket, -1 if none *)
  caps : float array; (* cached effective capacities, refreshed on faults *)
  mutable comp_gen : int; (* BFS generation counter *)
  res_mark : int array; (* conn resource -> last visit generation *)
  socket_mark : int array; (* socket -> last visit generation *)
  comp_slots : int U.Vec.t; (* scratch: current component's members' slots *)
  comp_res : int U.Vec.t; (* scratch: current component's real resources *)
  comp_sockets : int U.Vec.t; (* scratch: current component's coupled sockets *)
  comp_stack : int U.Vec.t; (* scratch: resources the BFS has yet to expand *)
  mutable ix : interns option; (* None before the first start_flow *)
  cheap : completions;
  mutable cache_gen : int; (* bumped when the cache config changes *)
  mutable solver_stats : Fairshare.stats; (* cumulative, over component computes *)
  mutable sketches : sketch_plane option; (* latency plane, off by default *)
}

and event =
  | Flow_started of Flow.t
  | Flow_completed of Flow.t
  | Flow_stopped of Flow.t
  | Fault_injected of T.Link.id * Fault.link_fault
  | Fault_cleared of T.Link.id
  | All_faults_cleared
  | Limits_changed of Flow.t
  | Config_changed of T.Hostconfig.t
  | Reallocated of int (* the new epoch *)
  | Batch_started
  | Batch_ended
  | Synced
  | Sensor_fault_injected of Sensorfault.target * Sensorfault.sensor_fault
  | Sensor_fault_cleared of Sensorfault.target

let res_of link_id (dir : T.Link.dir) = (2 * link_id) + match dir with T.Link.Fwd -> 0 | T.Link.Rev -> 1

let cls_index : Flow.cls -> int = function
  | Flow.Payload -> 0
  | Flow.Monitoring -> 1
  | Flow.Heartbeat -> 2
  | Flow.Probe -> 3
  | Flow.Induced -> 4

let cls_count = 5
let nresources topo = 2 * T.Topology.link_count topo

(* Build the striped socket->memory usages: each memory-controller
   mesh link carries 1/#mc of the rate, each DDR channel 1/#channels
   (hardware interleaving). *)
let build_socket_mems topo =
  let sockets = T.Topology.sockets topo in
  let max_socket =
    List.fold_left (fun acc (d : T.Device.t) -> max acc d.socket) (-1) sockets
  in
  let arr = Array.make (max_socket + 1) None in
  List.iter
    (fun (sock : T.Device.t) ->
      let mcs =
        List.filter_map
          (fun ((l : T.Link.t), peer) ->
            match (T.Topology.device topo peer).T.Device.kind with
            | T.Device.Memory_controller _ -> Some (l, peer)
            | _ -> None)
          (T.Topology.neighbors topo sock.id)
      in
      if mcs <> [] then begin
        let nmc = float_of_int (List.length mcs) in
        let channels =
          List.concat_map
            (fun (_, mc) ->
              List.filter_map
                (fun ((l : T.Link.t), peer) ->
                  match (T.Topology.device topo peer).T.Device.kind with
                  | T.Device.Dimm _ -> Some (l, mc)
                  | _ -> None)
                (T.Topology.neighbors topo mc))
            mcs
        in
        let nch = float_of_int (max 1 (List.length channels)) in
        let dir_out (l : T.Link.t) from = if l.a = from then T.Link.Fwd else T.Link.Rev in
        let to_mem =
          List.map (fun ((l : T.Link.t), _) -> (res_of l.id (dir_out l sock.id), 1.0 /. nmc)) mcs
          @ List.map
              (fun ((l : T.Link.t), mc) -> (res_of l.id (dir_out l mc), 1.0 /. nch))
              channels
        in
        let from_mem =
          List.map
            (fun ((l : T.Link.t), _) ->
              (res_of l.id (T.Link.opposite (dir_out l sock.id)), 1.0 /. nmc))
            mcs
          @ List.map
              (fun ((l : T.Link.t), mc) ->
                (res_of l.id (T.Link.opposite (dir_out l mc)), 1.0 /. nch))
              channels
        in
        let res u = Array.of_list (List.map fst u) and coeff u = Array.of_list (List.map snd u) in
        arr.(sock.socket) <-
          Some
            {
              to_res = res to_mem;
              to_coeff = coeff to_mem;
              from_res = res from_mem;
              from_coeff = coeff from_mem;
            }
      end)
    sockets;
  arr

(* Faults degrade both directions alike; [dir] is kept for interface
   symmetry with the per-direction telemetry. *)
let effective_capacity t link_id _dir =
  let link = T.Topology.link t.topo link_id in
  let f = Fault.get t.faults link_id in
  link.T.Link.capacity *. f.Fault.capacity_factor

let refresh_link_caps t link_id =
  let c = effective_capacity t link_id T.Link.Fwd in
  t.caps.(res_of link_id T.Link.Fwd) <- c;
  t.caps.(res_of link_id T.Link.Rev) <- c

let refresh_all_caps t =
  List.iter (fun (l : T.Link.t) -> refresh_link_caps t l.T.Link.id) (T.Topology.links t.topo)

let create ?(seed = 42) sim topo =
  let nr = nresources topo in
  let socket_mems = build_socket_mems topo in
  let ns = Array.length socket_mems in
  let cache = Cache.create (T.Topology.config topo).T.Hostconfig.ddio in
  let socket_of_res = Array.make (nr + ns) (-1) in
  Array.iteri
    (fun s sm ->
      match sm with
      | None -> ()
      | Some sm ->
        socket_of_res.(nr + s) <- s;
        Array.iter (fun r -> socket_of_res.(r) <- s) sm.to_res;
        Array.iter (fun r -> socket_of_res.(r) <- s) sm.from_res)
    socket_mems;
  let induced_trow = Array.make nr 0.0 in
  let tenant_rows = Hashtbl.create 64 in
  Hashtbl.add tenant_rows 0 induced_trow;
  let t =
    {
      sim;
      topo;
      rng = U.Rng.create seed;
      faults = Fault.create ();
      sensorfaults = Sensorfault.create ();
      cache;
      entries = Hashtbl.create 256;
      next_flow_id = 0;
      epoch = 0;
      last_update = Sim.now sim;
      load = Array.make nr 0.0;
      flows_on = Array.make nr 0;
      ddio_write = Array.make (max 1 ns) 0.0;
      ddio_hit = Array.make (max 1 ns) (if Cache.enabled cache then 1.0 else 0.0);
      spill_wb = Array.make (max 1 ns) 0.0;
      spill_rr = Array.make (max 1 ns) 0.0;
      socket_mems;
      link_bytes = Array.make nr 0.0;
      tenant_rows;
      cls_rows = Array.init cls_count (fun _ -> Array.make nr 0.0);
      induced_trow;
      allocs = 0;
      scope = None;
      listeners = [];
      nr;
      res_slots = Array.make (nr + ns) [||];
      res_len = Array.make (nr + ns) 0;
      slot_entry = [||];
      slot_mark = [||];
      free_slots = U.Vec.create ();
      socket_of_res;
      caps = Array.make nr 0.0;
      comp_gen = 0;
      res_mark = Array.make (nr + ns) 0;
      socket_mark = Array.make (max 1 ns) 0;
      comp_slots = U.Vec.create ();
      comp_res = U.Vec.create ();
      comp_sockets = U.Vec.create ();
      comp_stack = U.Vec.create ();
      ix = None;
      cheap = { at = [||]; seq = [||]; ent = [||]; len = 0; next_seq = 0 };
      cache_gen = 0;
      solver_stats = { Fairshare.solves = 0; full_rebuilds = 0; incremental = 0; unchanged = 0 };
      sketches = None;
    }
  in
  refresh_all_caps t;
  t

let subscribe t f = t.listeners <- t.listeners @ [ f ]
let emit t ev = List.iter (fun f -> f ev) t.listeners

let sim t = t.sim
let topology t = t.topo
let rng t = t.rng
let now t = Sim.now t.sim

let tenant_row t tenant =
  match Hashtbl.find_opt t.tenant_rows tenant with
  | Some row -> row
  | None ->
    let row = Array.make t.nr 0.0 in
    Hashtbl.add t.tenant_rows tenant row;
    row

(* Integrate flow progress and byte counters from last_update to now.
   Byte accumulation is a single array store per (hop, counter): each
   entry carries direct references to its tenant and class rows, so the
   per-sync cost is three float bumps per hop with no table lookups. *)
let sync t =
  let now = Sim.now t.sim in
  let dt = now -. t.last_update in
  if dt > 0.0 then begin
    let secs = dt /. 1e9 in
    Hashtbl.iter
      (fun _ e ->
        let f = e.flow in
        if f.Flow.state = Flow.Running && f.Flow.rate > 0.0 then begin
          let goodput = f.Flow.rate *. secs in
          f.Flow.transferred <- f.Flow.transferred +. goodput;
          if f.Flow.remaining <> infinity then
            f.Flow.remaining <- Float.max 0.0 (f.Flow.remaining -. goodput);
          let res = e.dem.Fairshare.res and coeff = e.dem.Fairshare.coeff in
          for j = 0 to Array.length res - 1 do
            let r = res.(j) in
            let bytes = f.Flow.rate *. coeff.(j) *. secs in
            t.link_bytes.(r) <- t.link_bytes.(r) +. bytes;
            e.trow.(r) <- e.trow.(r) +. bytes;
            e.crow.(r) <- e.crow.(r) +. bytes
          done
        end)
      t.entries;
    (* induced DDIO traffic: infrastructure tenant 0, class Induced *)
    let irow = t.induced_trow and icls = t.cls_rows.(cls_index Flow.Induced) in
    let add_induced res bytes =
      t.link_bytes.(res) <- t.link_bytes.(res) +. bytes;
      irow.(res) <- irow.(res) +. bytes;
      icls.(res) <- icls.(res) +. bytes
    in
    Array.iteri
      (fun s sm ->
        match sm with
        | None -> ()
        | Some sm ->
          if t.spill_wb.(s) > 0.0 then
            Array.iteri
              (fun j res -> add_induced res (t.spill_wb.(s) *. sm.to_coeff.(j) *. secs))
              sm.to_res;
          if t.spill_rr.(s) > 0.0 then
            Array.iteri
              (fun j res -> add_induced res (t.spill_rr.(s) *. sm.from_coeff.(j) *. secs))
              sm.from_res)
      t.socket_mems;
    t.last_update <- now
  end
  else t.last_update <- now

(* Public counter reads go through this wrapper: when the read actually
   advances the lazy byte integration, announce it. Replay must
   re-integrate over the same intervals (float addition is not
   associative), so a recorder needs to see every observation-driven
   sync; command-driven syncs (inside reallocate/stop) recur naturally
   when the command is replayed and stay silent. *)
let observed_sync t =
  let stale = t.last_update < Sim.now t.sim in
  sync t;
  if stale && t.listeners <> [] then emit t Synced

(* The socket (number) an llc_target flow writes into, when its
   destination is a CPU socket. *)
let llc_socket t (f : Flow.t) =
  let dst = f.path.T.Path.dst in
  match (T.Topology.device t.topo dst).T.Device.kind with
  | T.Device.Cpu_socket _ -> Some (T.Topology.device t.topo dst).T.Device.socket
  | _ -> None

let demand_of_entry e : Fairshare.demand =
  let f = e.flow in
  { e.dem with Fairshare.weight = f.Flow.weight; floor = f.Flow.floor; cap = Flow.effective_demand f }

(* Fillers for arrays made now and filled after. OCaml 5's
   [Array.make] of more than 256 words runs a minor collection first
   when its seed is still in the minor heap, so a big array of records
   is made around a filler that is not young, never around the first
   of the records it will hold. [nil_demand] is a constant the compiler
   lays out statically. [vacant ()] is an immediate, as in
   [Util.Heap]: it also fills free slots, so a freed slot keeps no
   stopped or completed flow reachable, and it is never read as an
   entry. *)
let nil_demand = { Fairshare.weight = 1.0; floor = 0.0; cap = 0.0; res = [||]; coeff = [||] }
let vacant () : entry = Obj.magic 0

(* Connectivity footprint of a flow: its usage resources, widened for
   LLC-targeted flows with the destination socket's virtual coupling
   resource [nr + s] and the socket's memory links. *)
let conn_of t (f : Flow.t) res =
  let base = Array.to_list res in
  let full =
    if not f.Flow.llc_target then base
    else
      match llc_socket t f with
      | Some s when s >= 0 && s < Array.length t.socket_mems -> (
        match t.socket_mems.(s) with
        | Some sm ->
          ((t.nr + s) :: base) @ Array.to_list sm.to_res @ Array.to_list sm.from_res
        | None -> base)
      | Some _ | None -> base
  in
  Array.of_list (List.sort_uniq compare full)

(* {2 Interned footprints and usage vectors}

   Every flow on one path (same LLC flag, payload and working set)
   shares one footprint array and one usage pair: [start_flow] looks
   both up by value, and each distinct one has a small int id. An id's
   refcount is the number of registered flows on it; the last flow to
   leave releases it, and a released id is reused. Usage ids [2s] and
   [2s + 1] are socket [s]'s spill fan-outs, to and from memory; they
   are never released, and they are not in the table a flow's usage is
   looked up in. Each vector is checked when it enters the table, so
   the solver reads it by id and never re-checks it.

   All of it is made at a fabric's first [start_flow], so a fabric
   that never starts a flow pays one field. *)

let spill_to s = 2 * s
let spill_from s = (2 * s) + 1

(* {2 Demand classes and the exactness certificate}

   Flows with one usage vector, weight, floor and cap form a demand
   class: they hand the solver identical demands. Each class is
   interned like a usage vector, refcounted by the registered flows in
   it and released with the last; [set_flow_limits] moves a flow to the
   class of its new limits. A compute hands the solver one demand per
   class, with the class's multiplicity, when the component passes the
   certificate below, and one per flow otherwise (MODEL.md §4).

   The certificate is read from per-class data stored at intern time:
   [dc_exp], an [E] such that each weight x coefficient product of the
   class is a multiple of 2^E, and [dc_sum], the sum of those products
   (infinity for a class with a floor above zero, or a product that is
   not a positive finite float). A component passes when the sum of
   its flows' [dc_sum] and its claimed sockets' spill fan-outs stays
   below 2^(51+E) for the least [E] among them: then every sum the
   solver forms of those products, times any multiplicity, is exact,
   and merging a class's flows moves no bit ([Fairshare.solve]). *)

(* [E] for a class with no product: above any float's lowest set bit,
   and small enough that 2^(51+E) does not overflow an int *)
let no_product = 1100

(* The exponent of the lowest set bit of a finite [x <> 0]: [x] is an
   odd multiple of 2^(lowbit x). *)
let lowbit x =
  let fr, e = Float.frexp x in
  let m = ref (Float.to_int (Float.ldexp (Float.abs fr) 53)) and b = ref (e - 53) in
  while !m land 1 = 0 do
    m := !m lsr 1;
    incr b
  done;
  !b

(* [(E, sum)] of the products [w *. c] over [coeff] *)
let products w coeff =
  let e = ref no_product and sum = ref 0.0 in
  Array.iter
    (fun c ->
      let p = w *. c in
      if p > 0.0 && p < infinity then begin
        e := min !e (lowbit p);
        sum := !sum +. p
      end
      else sum := infinity)
    coeff;
  (!e, !sum)

let make_interns t =
  let ns = Array.length t.socket_mems in
  let u_vec = Fairshare.vectors ~nr:t.nr in
  let sk_exp = Array.make ns no_product and sk_sum = Array.make ns 0.0 in
  Array.iteri
    (fun s sm ->
      match sm with
      | None -> ()
      | Some sm ->
        Fairshare.set_vector u_vec (spill_to s) sm.to_res sm.to_coeff;
        Fairshare.set_vector u_vec (spill_from s) sm.from_res sm.from_coeff;
        (* a spill demand has weight 1.0 *)
        let e_to, sum_to = products 1.0 sm.to_coeff and e_from, sum_from = products 1.0 sm.from_coeff in
        sk_exp.(s) <- min e_to e_from;
        sk_sum.(s) <- sum_to +. sum_from)
    t.socket_mems;
  let nconn = Array.length t.res_slots in
  {
    fp_ids = Fp_tbl.create 16;
    fp_refs = [||];
    fp_mark = [||];
    fp_free = U.Vec.create ();
    u_ids = Usage_tbl.create 16;
    u_vec;
    u_refs = Array.make (2 * ns) 0;
    u_free = U.Vec.create ();
    row_fps = Array.make nconn [||];
    row_nfp = Array.make nconn 0;
    dc_ids = Class_tbl.create 16;
    dc_refs = [||];
    dc_exp = [||];
    dc_sum = [||];
    dc_mark = [||];
    dc_slot = [||];
    dc_free = U.Vec.create ();
    dc_gen = 0;
    sk_exp;
    sk_sum;
    solved = 0;
    s_usage = [||];
    s_weight = [||];
    s_floor = [||];
    s_cap = [||];
    s_mult = [||];
    s_rates = [||];
    e_slot = [||];
    e_rates = [||];
  }

let interns t =
  match t.ix with
  | Some ix -> ix
  | None ->
    let ix = make_interns t in
    t.ix <- Some ix;
    ix

(* [a] widened to [n] cells, the new ones [fill] *)
let widen a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* The interned footprint equal to [conn], and its id. Each table
   keeps its key beside the id, so a hit hands back the shared array. *)
let intern_footprint ix conn =
  match Fp_tbl.find_opt ix.fp_ids conn with
  | Some hit -> hit
  | None ->
    if U.Vec.is_empty ix.fp_free then begin
      let cap = Array.length ix.fp_refs in
      let cap' = max 8 (2 * cap) in
      ix.fp_refs <- widen ix.fp_refs cap' 0;
      ix.fp_mark <- widen ix.fp_mark cap' 0;
      for id = cap' - 1 downto cap do
        U.Vec.push ix.fp_free id
      done
    end;
    let hit = (conn, U.Vec.pop ix.fp_free) in
    Fp_tbl.add ix.fp_ids conn hit;
    hit

(* Likewise for a usage vector; one the table has not met is checked
   before anything changes. *)
let intern_usage ix u =
  match Usage_tbl.find_opt ix.u_ids u with
  | Some hit -> hit
  | None ->
    if U.Vec.is_empty ix.u_free then begin
      let cap = Array.length ix.u_refs in
      let cap' = max 8 (2 * cap) in
      ix.u_refs <- widen ix.u_refs cap' 0;
      for id = cap' - 1 downto cap do
        U.Vec.push ix.u_free id
      done
    end;
    let id = U.Vec.get ix.u_free (U.Vec.length ix.u_free - 1) in
    Fairshare.set_vector ix.u_vec id u.ures u.ucoeff;
    ignore (U.Vec.pop ix.u_free);
    let hit = (u, id) in
    Usage_tbl.add ix.u_ids u hit;
    hit

let class_key uid (d : Fairshare.demand) =
  { k_uid = uid; k_weight = d.Fairshare.weight; k_floor = d.Fairshare.floor; k_cap = d.Fairshare.cap }

(* The class of demand [d] on usage vector [uid], and its id; the
   refcount is the caller's to take *)
let intern_class ix uid (d : Fairshare.demand) =
  let key = class_key uid d in
  match Class_tbl.find ix.dc_ids key with
  | id -> id
  | exception Not_found ->
    if U.Vec.is_empty ix.dc_free then begin
      let cap = Array.length ix.dc_refs in
      let cap' = max 8 (2 * cap) in
      ix.dc_refs <- widen ix.dc_refs cap' 0;
      ix.dc_exp <- widen ix.dc_exp cap' 0;
      ix.dc_sum <- widen ix.dc_sum cap' 0.0;
      ix.dc_mark <- widen ix.dc_mark cap' 0;
      ix.dc_slot <- widen ix.dc_slot cap' 0;
      for id = cap' - 1 downto cap do
        U.Vec.push ix.dc_free id
      done
    end;
    let id = U.Vec.pop ix.dc_free in
    let e, sum =
      if d.Fairshare.floor > 0.0 then (no_product, infinity)
      else products d.Fairshare.weight d.Fairshare.coeff
    in
    ix.dc_exp.(id) <- e;
    ix.dc_sum.(id) <- sum;
    Class_tbl.add ix.dc_ids key id;
    id

(* One flow of [e]'s class leaves it; the last releases it *)
let release_class ix e =
  let d = e.dc in
  ix.dc_refs.(d) <- ix.dc_refs.(d) - 1;
  if ix.dc_refs.(d) = 0 then begin
    Class_tbl.remove ix.dc_ids (class_key e.uid e.dem);
    U.Vec.push ix.dc_free d
  end

(* {2 The contention index}

   Each registered entry holds a slot; [slot_entry] maps it back, and
   [slot_mark] holds its BFS visit generation. Each conn resource keeps
   its entries' slots in an int array, oldest-registered first, so
   registration appends and the BFS reads a row from its end:
   newest-registered first. That order is load-bearing — it fixes BFS
   discovery order, hence the solver's demand order and its float sums
   (MODEL.md §12) — so removal shifts the row's tail down one cell
   rather than swapping the last cell in.

   Beside the slots, each conn resource lists the footprints on its
   row: a footprint is listed on every resource it holds while at
   least one registered flow has it (its refcount is its count on each
   of those rows). The walk reads that list to skip rows it has
   nothing left to find on. *)

let grow_slots t =
  let cap = Array.length t.slot_entry in
  let cap' = max 16 (2 * cap) in
  let entries = Array.make cap' (vacant ()) and marks = Array.make cap' 0 in
  Array.blit t.slot_entry 0 entries 0 cap;
  Array.blit t.slot_mark 0 marks 0 cap;
  t.slot_entry <- entries;
  t.slot_mark <- marks;
  for s = cap' - 1 downto cap do
    U.Vec.push t.free_slots s
  done

let register t ix e =
  if U.Vec.is_empty t.free_slots then grow_slots t;
  let s = U.Vec.pop t.free_slots in
  t.slot_entry.(s) <- e;
  e.slot <- s;
  Array.iter
    (fun r ->
      let row = t.res_slots.(r) and n = t.res_len.(r) in
      let row =
        if n < Array.length row then row
        else begin
          let row' = widen row (max 4 (2 * n)) 0 in
          t.res_slots.(r) <- row';
          row'
        end
      in
      row.(n) <- s;
      t.res_len.(r) <- n + 1)
    e.conn;
  let f = e.fp in
  if ix.fp_refs.(f) = 0 then
    (* the footprint's first flow lists it on each of its rows *)
    Array.iter
      (fun r ->
        let fps = ix.row_fps.(r) and n = ix.row_nfp.(r) in
        let fps =
          if n < Array.length fps then fps
          else begin
            let fps' = widen fps (max 4 (2 * n)) 0 in
            ix.row_fps.(r) <- fps';
            fps'
          end
        in
        fps.(n) <- f;
        ix.row_nfp.(r) <- n + 1)
      e.conn;
  ix.fp_refs.(f) <- ix.fp_refs.(f) + 1;
  ix.u_refs.(e.uid) <- ix.u_refs.(e.uid) + 1;
  ix.dc_refs.(e.dc) <- ix.dc_refs.(e.dc) + 1

let unregister t ix e =
  let s = e.slot in
  Array.iter
    (fun r ->
      let row = t.res_slots.(r) and n = t.res_len.(r) in
      let rec find k = if row.(k) = s then k else find (k + 1) in
      let k = find 0 in
      Array.blit row (k + 1) row k (n - k - 1);
      t.res_len.(r) <- n - 1)
    e.conn;
  t.slot_entry.(s) <- vacant ();
  e.slot <- -1;
  U.Vec.push t.free_slots s;
  let f = e.fp in
  ix.fp_refs.(f) <- ix.fp_refs.(f) - 1;
  if ix.fp_refs.(f) = 0 then begin
    (* the last flow takes it off its rows; the rows' order of
       footprints means nothing, so the last cell fills the hole *)
    Array.iter
      (fun r ->
        let fps = ix.row_fps.(r) and n = ix.row_nfp.(r) in
        let rec find k = if fps.(k) = f then k else find (k + 1) in
        fps.(find 0) <- fps.(n - 1);
        ix.row_nfp.(r) <- n - 1)
      e.conn;
    Fp_tbl.remove ix.fp_ids e.conn;
    U.Vec.push ix.fp_free f
  end;
  release_class ix e;
  let u = e.uid in
  ix.u_refs.(u) <- ix.u_refs.(u) - 1;
  if ix.u_refs.(u) = 0 then begin
    Usage_tbl.remove ix.u_ids { ures = e.dem.Fairshare.res; ucoeff = e.dem.Fairshare.coeff };
    Fairshare.clear_vector ix.u_vec u;
    U.Vec.push ix.u_free u
  end

(* {2 The completion heap}

   A binary min-heap over the flat arrays of [completions]. Each entry
   knows its key's slot, so a commit re-keys the key where it is and a
   stop or completion takes it out: the heap holds nothing stale.
   Sequence numbers are distinct, so the keys alone fix the pop order,
   never the layout: equal due times pop in the order their keys were
   last set (MODEL.md §4). Both sifts move a hole rather than swapping,
   and update the slot of every entry they move. They are inlined, so
   the due time they carry is never boxed. *)

(* whether slot [i]'s key goes before the key ([at], [seq]) *)
let[@inline] goes_before h i at seq = h.at.(i) < at || (h.at.(i) = at && h.seq.(i) < seq)

let[@inline] put h i at seq e =
  h.at.(i) <- at;
  h.seq.(i) <- seq;
  h.ent.(i) <- e;
  e.hpos <- i

let[@inline] sift_up h i at seq e =
  let i = ref i in
  while !i > 0 && not (goes_before h ((!i - 1) / 2) at seq) do
    let p = (!i - 1) / 2 in
    put h !i h.at.(p) h.seq.(p) h.ent.(p);
    i := p
  done;
  put h !i at seq e

let[@inline] sift_down h i at seq e =
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    (* the child that goes first *)
    let c = if l + 1 < h.len && goes_before h (l + 1) h.at.(l) h.seq.(l) then l + 1 else l in
    if c < h.len && goes_before h c at seq then begin
      put h !i h.at.(c) h.seq.(c) h.ent.(c);
      i := c
    end
    else continue := false
  done;
  put h !i at seq e

(* Seat the key ([at], [seq]) of [e] from the hole at slot [i]: up
   when it goes before the hole's parent, else down. *)
let[@inline] seat h i at seq e =
  if i > 0 && not (goes_before h ((i - 1) / 2) at seq) then sift_up h i at seq e
  else sift_down h i at seq e

(* Set [e]'s key to [at] with a fresh sequence number: re-keyed in
   place when it has one, else inserted. *)
let set_key h e at =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i =
    if e.hpos >= 0 then e.hpos
    else begin
      if h.len = Array.length h.at then begin
        let n = max 16 (2 * h.len) in
        h.at <- widen h.at n 0.0;
        h.seq <- widen h.seq n 0;
        h.ent <- widen h.ent n (vacant ())
      end;
      h.len <- h.len + 1;
      h.len - 1
    end
  in
  seat h i at seq e

(* Take [e]'s key out; the last key fills its hole. *)
let remove_key h e =
  let i = e.hpos and n = h.len - 1 in
  e.hpos <- -1;
  h.len <- n;
  if i < n then seat h i h.at.(n) h.seq.(n) h.ent.(n);
  h.ent.(n) <- vacant ()

let all_seeds t = Array.init (Array.length t.res_slots) Fun.id

(* The contention BFS both collectors share, within generation
   [t.comp_gen]. [claim_res t r] claims resource [r] into the scratch
   vectors and onto the work stack; claiming a DDIO-coupled socket
   claims all of its memory-side resources too, so spill accounting is
   recomputed whole. [drain t] pops the stack until every entry
   transitively sharing a claimed resource is claimed, with its
   footprint. *)
let rec claim_res t r =
  let gen = t.comp_gen in
  if t.res_mark.(r) <> gen then begin
    t.res_mark.(r) <- gen;
    if r < t.nr then U.Vec.push t.comp_res r;
    U.Vec.push t.comp_stack r;
    let s = t.socket_of_res.(r) in
    if s >= 0 && t.socket_mark.(s) <> gen then begin
      t.socket_mark.(s) <- gen;
      U.Vec.push t.comp_sockets s;
      match t.socket_mems.(s) with
      | Some sm ->
        claim_res t (t.nr + s);
        Array.iter (claim_res t) sm.to_res;
        Array.iter (claim_res t) sm.from_res
      | None -> ()
    end
  end

(* Whether row [r] holds a footprint the walk of generation [gen] has
   not met yet. *)
let row_fresh ix r gen =
  let fps = ix.row_fps.(r) and mark = ix.fp_mark in
  let k = ref (ix.row_nfp.(r) - 1) in
  while !k >= 0 && mark.(fps.(!k)) = gen do
    decr k
  done;
  !k >= 0

(* The walk pays per footprint, not per flow, and meets its members in
   the order a plain BFS would (MODEL.md §12). A flow with footprint F
   sits on every row of F, so the row scan that first meets F finds all
   of F's flows before the next resource is popped. Hence F's
   resources need claiming only at its first flow ([claim_res] is
   idempotent within a generation), and a row whose footprints have all
   been met holds no flow left to find, so it is not scanned. *)
let drain t =
  let gen = t.comp_gen in
  match t.ix with
  | None -> U.Vec.clear t.comp_stack (* no flow ever registered: every row is empty *)
  | Some ix ->
    while not (U.Vec.is_empty t.comp_stack) do
      let r = U.Vec.pop t.comp_stack in
      if row_fresh ix r gen then begin
        let row = t.res_slots.(r) in
        for k = t.res_len.(r) - 1 downto 0 do
          let s = row.(k) in
          if t.slot_mark.(s) <> gen then begin
            t.slot_mark.(s) <- gen;
            U.Vec.push t.comp_slots s;
            let e = t.slot_entry.(s) in
            if ix.fp_mark.(e.fp) <> gen then begin
              ix.fp_mark.(e.fp) <- gen;
              let conn = e.conn in
              for i = 0 to Array.length conn - 1 do
                claim_res t conn.(i)
              done
            end
          end
        done
      end
    done

let clear_scratch t =
  U.Vec.clear t.comp_stack;
  U.Vec.clear t.comp_slots;
  U.Vec.clear t.comp_res;
  U.Vec.clear t.comp_sockets

(* Collect into the scratch vectors the contention component reachable
   from [seeds]: every entry transitively sharing a resource with the
   seeds, every real resource the component touches, and every
   DDIO-coupled socket. All seeds are claimed before the one drain. *)
let collect_component t seeds =
  t.comp_gen <- t.comp_gen + 1;
  clear_scratch t;
  Array.iter (claim_res t) seeds;
  drain t

(* A snapshot of one contention component: the unit of reallocation.
   Components reachable from distinct seeds are resource-disjoint by
   construction, so their allocations are independent. *)
type component = {
  c_entries : entry array; (* BFS discovery order *)
  c_res : int array; (* real resources the component touches *)
  c_sockets : int array; (* DDIO-coupled sockets *)
}

(* Partition the contention closure of [seeds] into its connected
   components, in seed order (first-seed-reached first). The order is a
   pure function of the fabric state and the seed array — never of any
   scheduling decision — so it serves as the canonical component id
   for the deterministic merge below. *)
let collect_components t seeds =
  t.comp_gen <- t.comp_gen + 1;
  let gen = t.comp_gen in
  let comps = ref [] in
  Array.iter
    (fun seed ->
      if t.res_mark.(seed) <> gen then begin
        clear_scratch t;
        claim_res t seed;
        drain t;
        let n = U.Vec.length t.comp_slots in
        let entries = Array.make n (vacant ()) in
        for k = 0 to n - 1 do
          entries.(k) <- t.slot_entry.(U.Vec.get t.comp_slots k)
        done;
        comps :=
          {
            c_entries = entries;
            c_res = U.Vec.to_array t.comp_res;
            c_sockets = U.Vec.to_array t.comp_sockets;
          }
          :: !comps
      end)
    seeds;
  List.rev !comps

(* Grow the solve buffers to hold [need] demands and the entry
   buffers [nc] entries. Grow-only, with an eighth of headroom, like
   the solver's own workspace: the buffers outlive every solve. *)
let reserve_solve ix ~nc need =
  if Array.length ix.s_usage < need then begin
    let size = need + (need / 8) in
    ix.s_usage <- Array.make size 0;
    ix.s_weight <- Array.make size 0.0;
    ix.s_floor <- Array.make size 0.0;
    ix.s_cap <- Array.make size 0.0;
    ix.s_mult <- Array.make size 0.0;
    ix.s_rates <- Array.make size 0.0
  end;
  if Array.length ix.e_slot < nc then begin
    let size = nc + (nc / 8) in
    ix.e_slot <- Array.make size 0;
    ix.e_rates <- Array.make size 0.0
  end

(* The component's demands, into the solve buffers: one per demand
   class, in order of its first entry, with the class's multiplicity,
   when the component passes the exactness certificate; otherwise one
   per entry, in entry order, each of multiplicity 1, which is the
   per-flow solve operand for operand. Entry [i]'s demand is
   [e_slot.(i)]. Returns how many demands there are. Allocates
   nothing: no closure captures the float ref, so it stays unboxed
   (pinned in [engine.classes]). *)
let class_demands ix (c : component) =
  let nc = Array.length c.c_entries in
  let total = ref 0.0 and least = ref no_product in
  for i = 0 to nc - 1 do
    let d = c.c_entries.(i).dc in
    total := !total +. ix.dc_sum.(d);
    if ix.dc_exp.(d) < !least then least := ix.dc_exp.(d)
  done;
  for k = 0 to Array.length c.c_sockets - 1 do
    let s = c.c_sockets.(k) in
    total := !total +. ix.sk_sum.(s);
    if ix.sk_exp.(s) < !least then least := ix.sk_exp.(s)
  done;
  let merge = !total < Float.ldexp 1.0 (51 + !least) in
  ix.dc_gen <- ix.dc_gen + 1;
  let gen = ix.dc_gen and n = ref 0 in
  for i = 0 to nc - 1 do
    let en = c.c_entries.(i) in
    let d = en.dc in
    if merge && ix.dc_mark.(d) = gen then begin
      let k = ix.dc_slot.(d) in
      ix.s_mult.(k) <- ix.s_mult.(k) +. 1.0;
      ix.e_slot.(i) <- k
    end
    else begin
      let k = !n in
      incr n;
      ix.dc_mark.(d) <- gen;
      ix.dc_slot.(d) <- k;
      let dem = en.dem in
      ix.s_usage.(k) <- en.uid;
      ix.s_weight.(k) <- dem.Fairshare.weight;
      ix.s_floor.(k) <- dem.Fairshare.floor;
      ix.s_cap.(k) <- dem.Fairshare.cap;
      ix.s_mult.(k) <- 1.0;
      ix.e_slot.(i) <- k
    end
  done;
  !n

(* Rate computation for one component, committed as it is computed.
   The solve reads only state that is frozen for the duration of a
   reallocation (caps, cache model, topology, cached demands) and
   writes only scratch: the solve buffers and the socket arrays.
   The DDIO spill fixed point is resolved per affected socket by a
   short damped iteration (spill depends on allocated write rates which
   depend on memory-bus contention which includes spill), capped at 4
   iterations.

   The iteration stops early at its fixed point: once an iteration
   leaves every socket's wb and rr bitwise unchanged, the next one
   would build the same demands and so reproduce the same rates,
   write, hit, wb and rr. Stopping there is exact, not an
   approximation; the skipped iterations are counted as [unchanged]
   in the solver ledger.

   The solver sees a demand per class (see [class_demands]); every
   entry takes its demand's rate, and everything after the solve reads
   those per entry, in entry order.

   Only then does the component commit, in a fixed order: each entry's
   rate, stamp and completion key in walk order, then the claimed
   sockets' DDIO state, then its resources' loads and flow counts,
   folded in place. A solver refusal raises before any of it. *)
let compute_component t tnow (c : component) =
  let nc = Array.length c.c_entries in
  let ns = Array.length t.socket_mems in
  let ddio_on = Cache.enabled t.cache in
  let wb = Array.make (max 1 ns) 0.0
  and rr = Array.make (max 1 ns) 0.0
  and write = Array.make (max 1 ns) 0.0
  and hit = Array.make (max 1 ns) (if ddio_on then 1.0 else 0.0) in
  (* the component's own demands first, then at most two spill demands
     per socket. A fabric that never started a flow has no interns, and
     no demand either: no entry, so no LLC write and no spill. *)
  let nd =
    match t.ix with
    | None -> 0
    | Some ix ->
      reserve_solve ix ~nc (nc + (2 * Array.length c.c_sockets));
      class_demands ix c
  in
  let rates = match t.ix with None -> [||] | Some ix -> ix.e_rates in
  (* the spill fixed point only matters when LLC-targeted flows exist *)
  let any_llc = Array.exists (fun e -> e.flow.Flow.llc_target) c.c_entries in
  let iterations = if Array.length c.c_sockets > 0 && any_llc then 4 else 1 in
  let solves = ref 0 and moved = ref true in
  while !moved && !solves < iterations do
    incr solves;
    (* spill demands follow the component's, sockets last to first and
       re-read before write-back: the order the solver has always been
       given them in, which its float sums depend on *)
    (match t.ix with
    | None -> ()
    | Some ix ->
      let n = ref nd in
      for k = Array.length c.c_sockets - 1 downto 0 do
        let s = c.c_sockets.(k) in
        match t.socket_mems.(s) with
        | None -> ()
        | Some _ ->
          if rr.(s) > 0.0 then begin
            ix.s_usage.(!n) <- spill_from s;
            ix.s_weight.(!n) <- 1.0;
            ix.s_floor.(!n) <- 0.0;
            ix.s_cap.(!n) <- rr.(s);
            ix.s_mult.(!n) <- 1.0;
            incr n
          end;
          if wb.(s) > 0.0 then begin
            ix.s_usage.(!n) <- spill_to s;
            ix.s_weight.(!n) <- 1.0;
            ix.s_floor.(!n) <- 0.0;
            ix.s_cap.(!n) <- wb.(s);
            ix.s_mult.(!n) <- 1.0;
            incr n
          end
      done;
      Fairshare.solve ~capacities:t.caps ix.u_vec ~n:!n ~usage:ix.s_usage ~weight:ix.s_weight
        ~floor:ix.s_floor ~cap:ix.s_cap ~mult:ix.s_mult ix.s_rates;
      ix.solved <- ix.solved + !n;
      for i = 0 to nc - 1 do
        rates.(i) <- ix.s_rates.(ix.e_slot.(i))
      done);
    (* recompute spill targets from the allocated LLC write rates *)
    Array.iter (fun s -> write.(s) <- 0.0) c.c_sockets;
    Array.iteri
      (fun i e ->
        if e.flow.Flow.llc_target then
          match llc_socket t e.flow with
          | Some s when s >= 0 && s < ns -> write.(s) <- write.(s) +. rates.(i)
          | Some _ | None -> ())
      c.c_entries;
    moved := false;
    Array.iter
      (fun s ->
        let h = Cache.hit_rate t.cache ~write_rate:write.(s) in
        hit.(s) <- (if ddio_on then h else 0.0);
        let target_wb, target_rr =
          if write.(s) <= 0.0 then (0.0, 0.0)
          else if ddio_on then ((1.0 -. h) *. write.(s), (1.0 -. h) *. write.(s))
          else (write.(s), 0.0)
        in
        let wb' = (wb.(s) +. target_wb) /. 2.0 and rr' = (rr.(s) +. target_rr) /. 2.0 in
        if not (feq wb' wb.(s) && feq rr' rr.(s)) then moved := true;
        wb.(s) <- wb';
        rr.(s) <- rr')
      c.c_sockets
  done;
  let acc = t.solver_stats in
  t.solver_stats <-
    {
      Fairshare.solves = acc.Fairshare.solves + !solves;
      full_rebuilds = acc.Fairshare.full_rebuilds + !solves;
      incremental = acc.Fairshare.incremental;
      unchanged = acc.Fairshare.unchanged + (iterations - !solves);
    };
  for i = 0 to nc - 1 do
    let e = c.c_entries.(i) in
    let f = e.flow in
    f.Flow.rate <- rates.(i);
    if f.Flow.state = Flow.Running && f.Flow.remaining <> infinity && f.Flow.rate > 0.0 then
      set_key t.cheap e (tnow +. Flow.eta_ns f)
    else if e.hpos >= 0 then remove_key t.cheap e
  done;
  Array.iter
    (fun s ->
      t.ddio_write.(s) <- write.(s);
      t.ddio_hit.(s) <- hit.(s);
      t.spill_wb.(s) <- wb.(s);
      t.spill_rr.(s) <- rr.(s))
    c.c_sockets;
  (* The loads and flow counts, folded entry-major over usages, then
     the sockets' spill terms, from the rate scratch. Every resource
     the fold writes is in [c_res]: usage resources are in their
     entry's footprint, and a claimed socket claims its memory links.
     So zeroing [c_res] first leaves no stale term in any sum. *)
  let load = t.load and flows_on = t.flows_on in
  for k = 0 to Array.length c.c_res - 1 do
    let r = c.c_res.(k) in
    load.(r) <- 0.0;
    flows_on.(r) <- 0
  done;
  for i = 0 to nc - 1 do
    let d = c.c_entries.(i).dem in
    let res = d.Fairshare.res and coeff = d.Fairshare.coeff in
    for j = 0 to Array.length res - 1 do
      let r = res.(j) in
      load.(r) <- load.(r) +. (rates.(i) *. coeff.(j));
      flows_on.(r) <- flows_on.(r) + 1
    done
  done;
  let add_spill rate res coeff =
    for j = 0 to Array.length res - 1 do
      let r = res.(j) in
      load.(r) <- load.(r) +. (rate *. coeff.(j))
    done
  in
  Array.iter
    (fun s ->
      match t.socket_mems.(s) with
      | None -> ()
      | Some sm ->
        add_spill wb.(s) sm.to_res sm.to_coeff;
        add_spill rr.(s) sm.from_res sm.from_coeff)
    c.c_sockets

(* {2 Instantaneous latency views}

   Defined before the reallocation recursion because the always-on
   sketch plane records them from inside it (per-link at epochs,
   per-flow at completions). Pure reads of committed state. *)

let link_rate t link_id dir = t.load.(res_of link_id dir)

let link_utilization t link_id dir =
  let cap = effective_capacity t link_id dir in
  let rate = link_rate t link_id dir in
  if cap <= 0.0 then if rate > 0.0 then 1.0 else 0.0 else Float.min 1.0 (rate /. cap)

let crosses_root_complex t (path : T.Path.t) =
  List.exists
    (fun id ->
      match (T.Topology.device t.topo id).T.Device.kind with
      | T.Device.Root_complex -> true
      | _ -> false)
    (T.Path.devices path)

let path_latency t ?(payload_bytes = 0) (path : T.Path.t) =
  let hops_latency =
    List.fold_left
      (fun acc (hop : T.Path.hop) ->
        let f = Fault.get t.faults hop.link.T.Link.id in
        let u = link_utilization t hop.link.T.Link.id hop.dir in
        acc
        +. Latency.hop_latency ~base:hop.link.T.Link.base_latency ~utilization:u
             ~extra:f.Fault.extra_latency ())
      0.0 path.T.Path.hops
  in
  let iommu_latency =
    if crosses_root_complex t path then
      Iommu.expected_translation_latency (T.Topology.config t.topo).T.Hostconfig.iommu
        ~working_set_pages:32
    else 0.0
  in
  let serialization =
    if payload_bytes <= 0 then 0.0
    else begin
      (* a small message is serialized at roughly the rate a new flow
         would get: the larger of residual capacity and a fair share *)
      let rate =
        List.fold_left
          (fun acc (hop : T.Path.hop) ->
            let res = res_of hop.link.T.Link.id hop.dir in
            let cap = effective_capacity t hop.link.T.Link.id hop.dir in
            let residual = Float.max 0.0 (cap -. t.load.(res)) in
            let fair = cap /. float_of_int (t.flows_on.(res) + 1) in
            Float.min acc (Float.max residual fair))
          infinity path.T.Path.hops
      in
      if rate = infinity || rate <= 0.0 then 0.0
      else Latency.serialization ~bytes:(float_of_int payload_bytes) ~rate
    end
  in
  hops_latency +. iommu_latency +. serialization

(* WFQ delay isolation: a flow holding a guaranteed floor is served at
   least at that rate on every hop regardless of the aggregate queue, so
   its queueing delay follows its OWN utilization of the guarantee, not
   the aggregate's. Unmanaged flows (floor 0) see the aggregate. *)
let flow_path_latency t ?(payload_bytes = 0) (flow : Flow.t) =
  let path = flow.Flow.path in
  let base = path_latency t ~payload_bytes path in
  if flow.Flow.floor <= 0.0 then base
  else begin
    let own_u = Float.min 0.999 (flow.Flow.rate /. flow.Flow.floor) in
    let hops_latency =
      List.fold_left
        (fun acc (hop : T.Path.hop) ->
          let f = Fault.get t.faults hop.link.T.Link.id in
          let agg_u = link_utilization t hop.link.T.Link.id hop.T.Path.dir in
          let u = Float.min own_u agg_u in
          acc
          +. Latency.hop_latency ~base:hop.link.T.Link.base_latency ~utilization:u
               ~extra:f.Fault.extra_latency ())
        0.0 path.T.Path.hops
    in
    let iommu_latency =
      if crosses_root_complex t path then
        Iommu.expected_translation_latency (T.Topology.config t.topo).T.Hostconfig.iommu
          ~working_set_pages:32
      else 0.0
    in
    let serialization =
      (* once its WFQ slot arrives the message moves at wire speed; the
         waiting is already captured by the queueing term above *)
      if payload_bytes <= 0 then 0.0
      else
        let bottleneck =
          List.fold_left
            (fun acc (hop : T.Path.hop) ->
              Float.min acc (effective_capacity t hop.link.T.Link.id hop.T.Path.dir))
            infinity path.T.Path.hops
        in
        if bottleneck <= 0.0 || bottleneck = infinity then 0.0
        else Latency.serialization ~bytes:(float_of_int payload_bytes) ~rate:bottleneck
    in
    Float.min base (hops_latency +. iommu_latency +. serialization)
  end

(* Record the sketch plane's per-link observations for one committed
   component: the loaded hop latency of every (link, dir) resource the
   reallocation just touched. Pure reads; no events, no RNG, no rate
   movement — the digests a recorder takes are untouched whether the
   plane is dormant or active. *)
let record_link_latencies t sk (c : component) =
  Array.iter
    (fun r ->
      let link_id = r / 2 in
      let dir = if r land 1 = 0 then T.Link.Fwd else T.Link.Rev in
      let l = T.Topology.link t.topo link_id in
      let f = Fault.get t.faults link_id in
      U.Sketch.record sk.sk_links.(r)
        (Latency.hop_latency ~base:l.T.Link.base_latency
           ~utilization:(link_utilization t link_id dir)
           ~extra:f.Fault.extra_latency ()))
    c.c_res

(* Recompute rates for the component(s) reachable from [seeds] only;
   flows outside keep their rates, loads and completion events. Each
   component, in canonical order, is computed and committed before the
   next one is. *)
let rec reallocate t seeds =
  match t.scope with
  | Some sc when sc.is_open ->
    (* inside a batch: note each seed once, for the closing epoch *)
    for k = 0 to Array.length seeds - 1 do
      let r = seeds.(k) in
      if not sc.marks.(r) then begin
        sc.marks.(r) <- true;
        U.Vec.push sc.seeds r
      end
    done
  | Some _ | None -> reallocate_now t seeds

and reallocate_now t seeds =
  sync t;
  t.allocs <- t.allocs + 1;
  t.epoch <- t.epoch + 1;
  let tnow = Sim.now t.sim in
  let comps = collect_components t seeds in
  List.iter (compute_component t tnow) comps;
  (match t.sketches with
  | None -> ()
  | Some sk ->
    (* per-link latency observations for the resources this epoch just
       recommitted — the always-on percentile feed *)
    List.iter (fun c -> record_link_latencies t sk c) comps);
  schedule_next_completion t;
  (* guarded so unobserved fabrics pay nothing for the recorder hook *)
  if t.listeners <> [] then emit t (Reallocated t.epoch)

and schedule_next_completion t =
  if t.cheap.len > 0 then begin
    let at = t.cheap.at.(0) in
    let epoch = t.epoch in
    Sim.schedule t.sim
      ~after:(Float.max 0.0 (at -. Sim.now t.sim))
      (fun _ -> if epoch = t.epoch then handle_completions t)
  end

and handle_completions t =
  sync t;
  let tnow = Sim.now t.sim in
  let h = t.cheap in
  let completed = ref [] in
  let continue = ref true in
  while !continue && h.len > 0 do
    let e = h.ent.(0) in
    let f = e.flow in
    if f.Flow.remaining <= 1.0 then begin
      remove_key h e;
      f.Flow.state <- Flow.Completed;
      f.Flow.remaining <- 0.0;
      f.Flow.completed_at <- tnow;
      f.Flow.rate <- 0.0;
      Hashtbl.remove t.entries f.Flow.id;
      unregister t (interns t) e;
      completed := e :: !completed
    end
    else if h.at.(0) <= tnow then
      (* fired marginally early (float rounding): re-key to the fresh
         remaining/rate estimate and keep draining *)
      set_key h e (tnow +. Flow.eta_ns f)
    else continue := false
  done;
  match !completed with
  | [] -> schedule_next_completion t
  | completed ->
    reallocate t (Array.concat (List.map (fun e -> e.conn) completed));
    (match t.sketches with
    | None -> ()
    | Some sk ->
      (* end-to-end latency as the flow saw the fabric at completion *)
      List.iter
        (fun e -> U.Sketch.record sk.sk_flows (flow_path_latency t e.flow))
        completed);
    (* callbacks run after reallocation so they observe a consistent fabric *)
    List.iter
      (fun e ->
        emit t (Flow_completed e.flow);
        match e.flow.Flow.on_complete with Some cb -> cb e.flow | None -> ())
      completed

(* Capacity-consumption coefficient of a flow on one hop. *)
let hop_coeff t ~payload_bytes ~working_set_pages (hop : T.Path.hop) =
  match hop.link.T.Link.kind with
  | T.Link.Pcie _ ->
    let config = T.Topology.config t.topo in
    let mps = min payload_bytes config.T.Hostconfig.pcie_mps in
    let proto = 1.0 /. T.Pcie.payload_efficiency ~mps in
    let iommu =
      Iommu.bandwidth_overhead_factor config.T.Hostconfig.iommu ~working_set_pages
        ~payload_bytes:mps
    in
    proto *. iommu
  | T.Link.Cxl _ ->
    (* 64 B flits with 2-4 B overhead and no IOMMU on the coherent
       path: near-wire efficiency *)
    1.04
  | T.Link.Inter_socket | T.Link.Intra_socket | T.Link.Memory_channel | T.Link.Inter_host ->
    1.0

let usage_of_path t ~payload_bytes ~working_set_pages (path : T.Path.t) =
  let hops = Array.of_list path.T.Path.hops in
  {
    ures = Array.map (fun (hop : T.Path.hop) -> res_of hop.link.T.Link.id hop.dir) hops;
    ucoeff = Array.map (hop_coeff t ~payload_bytes ~working_set_pages) hops;
  }

let invalidf fmt = Printf.ksprintf invalid_arg fmt

(* NaN fails the comparison too. A NaN bound let through here would be
   refused only by the solver, after the flow was registered, and every
   later epoch of its component would be refused with it. *)
let check_bound fn field v =
  if not (v >= 0.0) then invalidf "%s: %s must be >= 0 (got %g)" fn field v

let start_flow t ~tenant ?(cls = Flow.Payload) ?(weight = 1.0) ?(floor = 0.0) ?(cap = infinity)
    ?(demand = infinity) ?payload_bytes ?(working_set_pages = 32) ?(llc_target = false)
    ?on_complete ~path ~size () =
  if not (T.Path.well_formed t.topo path) then invalid_arg "Fabric.start_flow: malformed path";
  if not (weight > 0.0) then invalidf "Fabric.start_flow: weight must be > 0 (got %g)" weight;
  check_bound "Fabric.start_flow" "floor" floor;
  check_bound "Fabric.start_flow" "cap" cap;
  check_bound "Fabric.start_flow" "demand" demand;
  let payload_bytes =
    match payload_bytes with
    | Some p ->
      if p <= 0 then invalid_arg "Fabric.start_flow: payload_bytes must be positive";
      p
    | None -> (T.Topology.config t.topo).T.Hostconfig.pcie_mps
  in
  if llc_target && not (T.Device.is_socket (T.Topology.device t.topo path.T.Path.dst)) then
    invalid_arg "Fabric.start_flow: llc_target path must end at a CPU socket";
  let ix = interns t in
  (* before the flow exists, so that a refused vector leaves no trace *)
  let u, uid = intern_usage ix (usage_of_path t ~payload_bytes ~working_set_pages path) in
  let flow =
    {
      Flow.id = t.next_flow_id;
      tenant;
      cls;
      path;
      size;
      demand;
      payload_bytes;
      working_set_pages;
      llc_target;
      started_at = Sim.now t.sim;
      weight;
      floor;
      cap;
      rate = 0.0;
      remaining = (match size with Flow.Bytes b -> b | Flow.Unbounded -> infinity);
      transferred = 0.0;
      state = Flow.Running;
      completed_at = nan;
      on_complete;
    }
  in
  t.next_flow_id <- t.next_flow_id + 1;
  let conn, fp = intern_footprint ix (conn_of t flow u.ures) in
  let dem =
    { Fairshare.weight; floor; cap = Flow.effective_demand flow; res = u.ures; coeff = u.ucoeff }
  in
  let entry =
    {
      flow;
      conn;
      fp;
      uid;
      dc = intern_class ix uid dem;
      dem;
      trow = tenant_row t tenant;
      crow = t.cls_rows.(cls_index cls);
      slot = -1;
      hpos = -1;
    }
  in
  Hashtbl.replace t.entries flow.Flow.id entry;
  register t ix entry;
  reallocate t entry.conn;
  emit t (Flow_started flow);
  flow

let stop_flow t (f : Flow.t) =
  if f.Flow.state = Flow.Running then begin
    sync t;
    f.Flow.state <- Flow.Stopped;
    f.Flow.rate <- 0.0;
    (match Hashtbl.find_opt t.entries f.Flow.id with
    | Some e ->
      if e.hpos >= 0 then remove_key t.cheap e;
      Hashtbl.remove t.entries f.Flow.id;
      unregister t (interns t) e;
      reallocate t e.conn
    | None -> ());
    emit t (Flow_stopped f)
  end

let set_flow_limits t (f : Flow.t) ?weight ?floor ?cap () =
  (* every field is checked before any is stored *)
  Option.iter
    (fun w -> if not (w > 0.0) then invalidf "Fabric.set_flow_limits: weight must be > 0 (got %g)" w)
    weight;
  Option.iter (check_bound "Fabric.set_flow_limits" "floor") floor;
  Option.iter (check_bound "Fabric.set_flow_limits" "cap") cap;
  Option.iter (fun w -> f.Flow.weight <- w) weight;
  Option.iter (fun x -> f.Flow.floor <- x) floor;
  Option.iter (fun x -> f.Flow.cap <- x) cap;
  if f.Flow.state = Flow.Running then
    match Hashtbl.find_opt t.entries f.Flow.id with
    | Some e ->
      let old = e.dem and dem = demand_of_entry e in
      (* limits that keep their bits keep their class; [release_class]
         finds the old class by [e.dem], so it runs before that moves *)
      if
        not
          (feq dem.Fairshare.weight old.Fairshare.weight
          && feq dem.Fairshare.floor old.Fairshare.floor
          && feq dem.Fairshare.cap old.Fairshare.cap)
      then begin
        let ix = interns t in
        let dc = intern_class ix e.uid dem in
        ix.dc_refs.(dc) <- ix.dc_refs.(dc) + 1;
        release_class ix e;
        e.dc <- dc
      end;
      e.dem <- dem;
      reallocate t e.conn;
      if t.listeners <> [] then emit t (Limits_changed f)
    | None -> reallocate t (all_seeds t)

let active_flows t =
  Hashtbl.fold (fun _ e acc -> e.flow :: acc) t.entries []
  |> List.sort (fun (a : Flow.t) b -> compare a.Flow.id b.Flow.id)

let find_flow t id = Option.map (fun e -> e.flow) (Hashtbl.find_opt t.entries id)
let flow_count t = Hashtbl.length t.entries
let refresh t = observed_sync t

(* One epoch per batch, seeded by the distinct resources its commands
   touched, in ascending order: components the batch did not touch keep
   their rates, loads and completion keys, as they do after a lone
   command. *)
let batch t f =
  let sc =
    match t.scope with
    | Some sc -> sc
    | None ->
      let sc =
        {
          is_open = false;
          marks = Array.make (Array.length t.res_slots) false;
          seeds = U.Vec.create ();
        }
      in
      t.scope <- Some sc;
      sc
  in
  if sc.is_open then f ()
  else begin
    if t.listeners <> [] then emit t Batch_started;
    sc.is_open <- true;
    Fun.protect
      ~finally:(fun () ->
        sc.is_open <- false;
        (* taken and cleared before the epoch runs: an exception from it
           leaves no seed behind for the next batch *)
        let seeds = U.Vec.to_array sc.seeds in
        U.Vec.clear sc.seeds;
        Array.iter (fun r -> sc.marks.(r) <- false) seeds;
        Array.sort Int.compare seeds;
        reallocate t seeds;
        if t.listeners <> [] then emit t Batch_ended)
      f
  end

let transfer_time t ~path ~bytes =
  let u =
    usage_of_path t ~payload_bytes:(T.Topology.config t.topo).T.Hostconfig.pcie_mps
      ~working_set_pages:32 path
  in
  (* the probe only contends with its own component; everything else
     is resource-disjoint and cannot shift its allocation *)
  collect_component t u.ures;
  let nc = U.Vec.length t.comp_slots in
  let dems = Array.make (nc + 1) nil_demand in
  for i = 0 to nc - 1 do
    dems.(i) <- t.slot_entry.(U.Vec.get t.comp_slots i).dem
  done;
  dems.(nc) <- { Fairshare.weight = 1.0; floor = 0.0; cap = infinity; res = u.ures; coeff = u.ucoeff };
  let rate = (Fairshare.allocate ~capacities:t.caps dems).(nc) in
  if rate <= 0.0 then None else Some (bytes /. rate *. 1e9)

let link_bytes t link_id dir =
  observed_sync t;
  t.link_bytes.(res_of link_id dir)

let tenant_link_bytes t link_id dir ~tenant =
  observed_sync t;
  match Hashtbl.find_opt t.tenant_rows tenant with
  | Some row -> row.(res_of link_id dir)
  | None -> 0.0

let cls_link_bytes t link_id dir ~cls =
  observed_sync t;
  t.cls_rows.(cls_index cls).(res_of link_id dir)

let probe_loss_prob t (path : T.Path.t) =
  let survive =
    List.fold_left
      (fun acc (hop : T.Path.hop) ->
        let f = Fault.get t.faults hop.link.T.Link.id in
        acc *. (1.0 -. f.Fault.loss_prob))
      1.0 path.T.Path.hops
  in
  1.0 -. survive

let ddio_write_rate t ~socket =
  if socket >= 0 && socket < Array.length t.ddio_write then t.ddio_write.(socket) else 0.0

let ddio_hit_rate t ~socket =
  if socket >= 0 && socket < Array.length t.ddio_hit then t.ddio_hit.(socket) else 1.0

let ddio_spill_rate t ~socket =
  if socket >= 0 && socket < Array.length t.spill_wb then
    t.spill_wb.(socket) +. t.spill_rr.(socket)
  else 0.0

let fault_seeds link_id = [| res_of link_id T.Link.Fwd; res_of link_id T.Link.Rev |]

let inject_fault t link_id fault =
  Fault.inject t.faults link_id fault;
  refresh_link_caps t link_id;
  reallocate t (fault_seeds link_id);
  emit t (Fault_injected (link_id, fault))

let clear_fault t link_id =
  Fault.clear t.faults link_id;
  refresh_link_caps t link_id;
  reallocate t (fault_seeds link_id);
  emit t (Fault_cleared link_id)

let flap_link t link_id fault ~period ~toggles =
  if period <= 0.0 then invalid_arg "Fabric.flap_link: period must be positive";
  if toggles < 1 then invalid_arg "Fabric.flap_link: toggles must be >= 1";
  let rec toggle k _ =
    if k < toggles then begin
      if k mod 2 = 0 then inject_fault t link_id fault else clear_fault t link_id;
      Sim.schedule t.sim ~after:period (toggle (k + 1))
    end
  in
  Sim.schedule t.sim ~after:0.0 (toggle 0)

let clear_all_faults t =
  Fault.clear_all t.faults;
  refresh_all_caps t;
  reallocate t (all_seeds t);
  if t.listeners <> [] then emit t All_faults_cleared

let fault_of t link_id = Fault.get t.faults link_id

(* Sensor faults corrupt only the telemetry path: no capacity changes,
   no reallocation, no rate movement — epoch-neutral for replay. The
   events exist so the flight recorder can reproduce the corruption. *)
let inject_sensor_fault t target f =
  Sensorfault.inject t.sensorfaults target f;
  if t.listeners <> [] then emit t (Sensor_fault_injected (target, f))

let clear_sensor_fault t target =
  Sensorfault.clear t.sensorfaults target;
  if t.listeners <> [] then emit t (Sensor_fault_cleared target)

let clear_all_sensor_faults t =
  List.iter (fun (tg, _) -> clear_sensor_fault t tg) (Sensorfault.active t.sensorfaults)

let sensor_faults_armed t = Sensorfault.count t.sensorfaults > 0
let sensor_fault_of t target = Sensorfault.get t.sensorfaults target
let sensor_faults t = Sensorfault.active t.sensorfaults

let device_sensor_fault t dev = Sensorfault.get t.sensorfaults (Sensorfault.Device dev)

let link_sensor_fault t link_id =
  let l = T.Topology.link t.topo link_id in
  Sensorfault.merge (device_sensor_fault t l.T.Link.a) (device_sensor_fault t l.T.Link.b)

let on_device_links t device f =
  batch t (fun () ->
      List.iter (fun ((l : T.Link.t), _) -> f l.T.Link.id) (T.Topology.neighbors t.topo device))

let fail_device t device = on_device_links t device (fun id -> inject_fault t id Fault.down)
let revive_device t device = on_device_links t device (fun id -> clear_fault t id)

let set_config t config =
  T.Topology.set_config t.topo config;
  t.cache <- Cache.create config.T.Hostconfig.ddio;
  t.cache_gen <- t.cache_gen + 1;
  refresh_all_caps t;
  reallocate t (all_seeds t);
  if t.listeners <> [] then emit t (Config_changed config)

let enable_latency_sketches t =
  match t.sketches with
  | Some _ -> ()
  | None ->
    t.sketches <-
      Some
        {
          sk_links = Array.init t.nr (fun _ -> U.Sketch.create ());
          sk_flows = U.Sketch.create ();
        }

let latency_sketches_enabled t = t.sketches <> None

let link_latency_sketch t link_id dir =
  Option.map (fun sk -> sk.sk_links.(res_of link_id dir)) t.sketches

let flow_latency_sketch t = Option.map (fun sk -> sk.sk_flows) t.sketches

let reallocations t = t.allocs
let warm_hits _ = 0
let warm_misses _ = 0

(* {2 Out-of-band scan exposition}

   The boundary-scan view of the fabric: every accessor below is a pure
   read of committed state. None of them syncs the lazy byte
   integration, emits an event, draws from the RNG, reorders the
   completion heap or moves the solver ledger — the zero-impact contract
   the scanport-idle bench asserts. Mutable arrays are copied so a
   caller can hold a snapshot across further simulation. *)

let scan_epoch t = t.epoch
let scan_clock t = Sim.now t.sim
let scan_last_update t = t.last_update
let scan_next_flow_id t = t.next_flow_id
let scan_rng_state t = U.Rng.peek t.rng
let scan_cache_gen t = t.cache_gen
let scan_resources t = t.nr
let scan_load t = Array.copy t.load
let scan_flows_on t = Array.copy t.flows_on
let scan_link_bytes t = Array.copy t.link_bytes
let scan_caps t = Array.copy t.caps

let scan_ddio t =
  (Array.copy t.ddio_write, Array.copy t.ddio_hit, Array.copy t.spill_wb, Array.copy t.spill_rr)

let scan_tenant_rows t =
  Hashtbl.fold (fun tn row acc -> (tn, Array.copy row) :: acc) t.tenant_rows []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let scan_cls_rows t = Array.map Array.copy t.cls_rows
let scan_flows t = active_flows t

let scan_completion_heap t =
  let h = t.cheap in
  List.init h.len (fun i -> (h.at.(i), h.seq.(i), h.ent.(i).flow.Flow.id))
  |> List.sort compare
  |> List.map (fun (at, _, id) -> (at, id))

let scan_solver_stats t = t.solver_stats

let interned t =
  match t.ix with
  | None -> (0, 0)
  | Some ix -> (Fp_tbl.length ix.fp_ids, Usage_tbl.length ix.u_ids)

let demand_classes t = match t.ix with None -> 0 | Some ix -> Class_tbl.length ix.dc_ids
let demands_solved t = match t.ix with None -> 0 | Some ix -> ix.solved

(* {2 The contention walk, read back} *)

let footprint t (f : Flow.t) =
  match Hashtbl.find_opt t.entries f.Flow.id with
  | Some e when e.flow == f -> Some (Array.copy e.conn)
  | Some _ | None -> None

let demand t (f : Flow.t) =
  match Hashtbl.find_opt t.entries f.Flow.id with
  | Some e when e.flow == f ->
    let d = e.dem in
    Some { d with Fairshare.res = Array.copy d.Fairshare.res; coeff = Array.copy d.Fairshare.coeff }
  | Some _ | None -> None

let claim_group t r =
  let s = t.socket_of_res.(r) in
  match if s >= 0 then t.socket_mems.(s) else None with
  | None -> [| r |]
  | Some sm ->
    Array.of_list
      (r :: List.filter (fun x -> x <> r) ((t.nr + s) :: Array.to_list sm.to_res @ Array.to_list sm.from_res))

let walk t seeds =
  List.concat_map
    (fun c -> Array.to_list (Array.map (fun e -> e.flow.Flow.id) c.c_entries))
    (collect_components t seeds)

(* Advance the simulation by whole reallocation epochs: execute queued
   events one at a time until the epoch counter moves past where it
   was, then stop — the single-step half of the scan port's
   freeze/step protocol. Between calls the fabric is exactly at an
   epoch boundary (nothing runs unless the sim is driven).

   A queue can hold work that never ends and never reallocates: the
   arbiter's shim on a host with a placement and no flow queues its
   next pass from each pass, and in a bare [Sim.step] it cannot skip
   ahead (MODEL.md §12). So a step gives up after [step_budget] events
   with no epoch. The budget counts events, not time, so where a step
   stops depends only on the simulation, and a replayed step stops at
   the same event. *)
let step_budget = 100_000

let step_epoch t =
  let start = t.epoch in
  let rec go left = t.epoch > start || (left > 0 && Sim.step t.sim && go (left - 1)) in
  go step_budget
