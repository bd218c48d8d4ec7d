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
  usage : (int * float) list;
  conn : int array;
  mutable dem : Fairshare.demand;
      (* cached allocator view; rebuilt only when the flow's limits
         change, not on every reallocation *)
  trow : float array; (* per-resource cumulative bytes, owning tenant's row *)
  crow : float array; (* per-resource cumulative bytes, traffic class row *)
  mutable mark : int; (* component-BFS visit generation *)
  mutable hstamp : int; (* completion-heap generation (lazy invalidation) *)
}

(* Per-socket memory fan-out used to stripe induced DDIO traffic. *)
type socket_mem = {
  socket_dev : T.Device.id;
  to_mem : (int * float) list; (* resources socket->DIMMs, striped coefficients *)
  from_mem : (int * float) list; (* resources DIMMs->socket *)
}

(* What a component's allocation pass produces; the socket arrays are
   full-width (indexed by global socket number) but only the slots in
   [c_sockets] are meaningful. *)
type comp_result = {
  cr_rates : float array; (* per entry, in c_entries order *)
  cr_write : float array;
  cr_hit : float array;
  cr_wb : float array;
  cr_rr : float array;
  cr_load : float array; (* per resource, in c_res order *)
  cr_flows : int array; (* active flow count per resource, c_res order *)
  cr_stats : Fairshare.stats; (* solver work this compute did *)
}

(* Component memo: one fully-computed component result, keyed by the
   exact inputs [compute_component] read. A hit replays the result
   without solving; any input difference — a demand record, the
   connectivity footprint, an effective capacity, the cache config
   generation — misses and recomputes. Entry identity does not matter,
   only values: a stopped-and-restarted identical flow legitimately
   hits. *)
type comp_memo = {
  m_dems : Fairshare.demand array; (* snapshot, c_entries order *)
  m_conn : int array array;
  m_llc : bool array;
  m_res : int array;
  m_sockets : int array;
  m_caps : float array; (* effective capacities at m_res indices *)
  m_gen : int; (* cache-config generation at compute time *)
  m_result : comp_result;
  mutable m_epoch : int; (* last hit, for LRU within a bucket *)
}

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
  mutable in_batch : bool; (* defer reallocation inside Fabric.batch *)
  mutable listeners : (event -> unit) list; (* registration order *)
  (* incremental allocation state *)
  nr : int; (* real (link, dir) resource count *)
  res_entries : entry list array; (* conn resource -> incident entries *)
  socket_of_res : int array; (* conn resource -> DDIO-coupled socket, -1 if none *)
  caps : float array; (* cached effective capacities, refreshed on faults *)
  mutable comp_gen : int; (* BFS generation counter *)
  res_mark : int array; (* conn resource -> last visit generation *)
  socket_mark : int array; (* socket -> last visit generation *)
  comp_entries : entry U.Vec.t; (* scratch: current component's members *)
  comp_res : int U.Vec.t; (* scratch: current component's real resources *)
  comp_sockets : int U.Vec.t; (* scratch: current component's coupled sockets *)
  mutable comp_stack : int list; (* scratch: resources the BFS has yet to expand *)
  mutable solve_dems : Fairshare.demand array; (* scratch: one solve's demands, grow-only *)
  mutable solve_rates : float array; (* scratch: one solve's rates, same length *)
  loadb : float array; (* scratch: per-resource load, all zero between computes *)
  flowsb : int array; (* scratch: per-resource flow count, all zero between computes *)
  cheap : (entry * int) U.Heap.t; (* completion times, prio = absolute ns *)
  (* component-result memo *)
  warm : bool; (* memo on *)
  comp_cache : (int, comp_memo list) Hashtbl.t; (* min component resource -> memos *)
  mutable cache_gen : int; (* bumped when the cache config changes *)
  mutable warm_hits : int;
  mutable warm_misses : int;
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

(* Build the striped socket->memory usage lists: each memory-controller
   mesh link carries 1/#mc of the rate, each DDR channel 1/#channels
   (hardware interleaving). *)
let build_socket_mems topo =
  let sockets =
    T.Topology.find_devices topo (fun d ->
        match d.T.Device.kind with T.Device.Cpu_socket _ -> true | _ -> false)
  in
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
        arr.(sock.socket) <- Some { socket_dev = sock.id; to_mem; from_mem }
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

let create ?(seed = 42) ?(warm = true) sim topo =
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
        List.iter (fun (r, _) -> socket_of_res.(r) <- s) sm.to_mem;
        List.iter (fun (r, _) -> socket_of_res.(r) <- s) sm.from_mem)
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
      in_batch = false;
      listeners = [];
      nr;
      res_entries = Array.make (nr + ns) [];
      socket_of_res;
      caps = Array.make nr 0.0;
      comp_gen = 0;
      res_mark = Array.make (nr + ns) 0;
      socket_mark = Array.make (max 1 ns) 0;
      comp_entries = U.Vec.create ();
      comp_res = U.Vec.create ();
      comp_sockets = U.Vec.create ();
      comp_stack = [];
      solve_dems = [||];
      solve_rates = [||];
      loadb = Array.make nr 0.0;
      flowsb = Array.make nr 0;
      cheap = U.Heap.create ();
      warm;
      comp_cache = Hashtbl.create 64;
      cache_gen = 0;
      warm_hits = 0;
      warm_misses = 0;
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
          List.iter
            (fun (res, coeff) ->
              let bytes = f.Flow.rate *. coeff *. secs in
              t.link_bytes.(res) <- t.link_bytes.(res) +. bytes;
              e.trow.(res) <- e.trow.(res) +. bytes;
              e.crow.(res) <- e.crow.(res) +. bytes)
            e.usage
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
            List.iter (fun (res, coeff) -> add_induced res (t.spill_wb.(s) *. coeff *. secs)) sm.to_mem;
          if t.spill_rr.(s) > 0.0 then
            List.iter (fun (res, coeff) -> add_induced res (t.spill_rr.(s) *. coeff *. secs)) sm.from_mem)
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

(* Exact float equality: compares bits, so -0.0 <> 0.0 and any ULP
   counts (the recorder digests raw rate bits). *)
let feq (a : float) (b : float) = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let demand_of_entry e : Fairshare.demand =
  let f = e.flow in
  {
    Fairshare.weight = f.Flow.weight;
    floor = f.Flow.floor;
    cap = Flow.effective_demand f;
    usage = e.usage;
  }

let spill_demand rate usage : Fairshare.demand =
  { Fairshare.weight = 1.0; floor = 0.0; cap = rate; usage }

(* Connectivity footprint of a flow: its usage resources, widened for
   LLC-targeted flows with the destination socket's virtual coupling
   resource [nr + s] and the socket's memory links. *)
let conn_of t (f : Flow.t) usage =
  let base = List.map fst usage in
  let full =
    if not f.Flow.llc_target then base
    else
      match llc_socket t f with
      | Some s when s >= 0 && s < Array.length t.socket_mems -> (
        match t.socket_mems.(s) with
        | Some sm ->
          ((t.nr + s) :: base) @ List.map fst sm.to_mem @ List.map fst sm.from_mem
        | None -> base)
      | Some _ | None -> base
  in
  Array.of_list (List.sort_uniq compare full)

let register t e =
  Array.iter (fun r -> t.res_entries.(r) <- e :: t.res_entries.(r)) e.conn

let unregister t e =
  let id = e.flow.Flow.id in
  Array.iter
    (fun r ->
      t.res_entries.(r) <- List.filter (fun e' -> e'.flow.Flow.id <> id) t.res_entries.(r))
    e.conn

let all_seeds t = Array.init (Array.length t.res_entries) Fun.id

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
    t.comp_stack <- r :: t.comp_stack;
    let s = t.socket_of_res.(r) in
    if s >= 0 && t.socket_mark.(s) <> gen then begin
      t.socket_mark.(s) <- gen;
      U.Vec.push t.comp_sockets s;
      match t.socket_mems.(s) with
      | Some sm ->
        claim_res t (t.nr + s);
        List.iter (fun (r', _) -> claim_res t r') sm.to_mem;
        List.iter (fun (r', _) -> claim_res t r') sm.from_mem
      | None -> ()
    end
  end

let rec drain t =
  match t.comp_stack with
  | [] -> ()
  | r :: rest ->
    t.comp_stack <- rest;
    let gen = t.comp_gen in
    List.iter
      (fun e ->
        if e.mark <> gen then begin
          e.mark <- gen;
          U.Vec.push t.comp_entries e;
          for i = 0 to Array.length e.conn - 1 do
            claim_res t e.conn.(i)
          done
        end)
      t.res_entries.(r);
    drain t

let clear_scratch t =
  t.comp_stack <- [];
  U.Vec.clear t.comp_entries;
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

(* A snapshot of one contention component: the unit of reallocation
   and of the memo. Components reachable from distinct seeds are
   resource-disjoint by construction, so their allocations are
   independent. *)
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
        comps :=
          {
            c_entries = U.Vec.to_array t.comp_entries;
            c_res = U.Vec.to_array t.comp_res;
            c_sockets = U.Vec.to_array t.comp_sockets;
          }
          :: !comps
      end)
    seeds;
  List.rev !comps

(* Grow the solve buffers to hold [need] demands. Grow-only, with an
   eighth of headroom, like the solver's own workspace: the buffers
   outlive every solve, so only what the memo keeps is fresh. *)
let reserve_solve t need =
  if Array.length t.solve_dems < need then begin
    let size = need + (need / 8) in
    t.solve_dems <- Array.make size (spill_demand 0.0 []);
    t.solve_rates <- Array.make size 0.0
  end

(* Rate computation for one component. It reads only state that is
   frozen for the duration of a reallocation (caps, cache model,
   topology, cached demands) and writes only scratch that it resets —
   the solve buffers, [loadb]/[flowsb] — plus the result it returns.
   So its result is a function of those inputs, and the component memo
   may replay it whenever they recur. The DDIO
   spill fixed point is resolved per affected socket by a short damped
   iteration (spill depends on allocated write rates which depend on
   memory-bus contention which includes spill), capped at 4 iterations.

   The iteration stops early at its fixed point: once an iteration
   leaves every socket's wb and rr bitwise unchanged, the next one
   would build the same demands and so reproduce the same rates,
   write, hit, wb and rr. Stopping there is exact, not an
   approximation; the skipped iterations are counted as [unchanged]
   in the solver ledger. *)
let compute_component t (c : component) =
  let nc = Array.length c.c_entries in
  let ns = Array.length t.socket_mems in
  let ddio_on = Cache.enabled t.cache in
  let wb = Array.make (max 1 ns) 0.0
  and rr = Array.make (max 1 ns) 0.0
  and write = Array.make (max 1 ns) 0.0
  and hit = Array.make (max 1 ns) (if ddio_on then 1.0 else 0.0) in
  (* the component's own demands first, then at most two spill demands
     per socket *)
  reserve_solve t (nc + (2 * Array.length c.c_sockets));
  let dems = t.solve_dems and rates = t.solve_rates in
  Array.iteri (fun i e -> dems.(i) <- e.dem) c.c_entries;
  (* the spill fixed point only matters when LLC-targeted flows exist *)
  let any_llc = Array.exists (fun e -> e.flow.Flow.llc_target) c.c_entries in
  let iterations = if Array.length c.c_sockets > 0 && any_llc then 4 else 1 in
  let solves = ref 0 and moved = ref true in
  while !moved && !solves < iterations do
    incr solves;
    (* spill demands follow the component's, sockets last to first and
       re-read before write-back: the order the solver has always been
       given them in, which its float sums depend on *)
    let n = ref nc in
    for k = Array.length c.c_sockets - 1 downto 0 do
      let s = c.c_sockets.(k) in
      match t.socket_mems.(s) with
      | None -> ()
      | Some sm ->
        if rr.(s) > 0.0 then begin
          dems.(!n) <- spill_demand rr.(s) sm.from_mem;
          incr n
        end;
        if wb.(s) > 0.0 then begin
          dems.(!n) <- spill_demand wb.(s) sm.to_mem;
          incr n
        end
    done;
    Fairshare.allocate_into ~capacities:t.caps ~n:!n dems rates;
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
  (* Pre-aggregate the component-local loads and flow counts here (in
     the memoizable part) so commit is O(resources) stores instead of
     O(entries x usage) list walks. The accumulation
     order — entry-major over usages, then socket spill terms — is
     exactly the order the commit-side recomputation used, so the float
     sums are bitwise identical. Every resource written here is in
     [c_res]: usage resources are in their entry's footprint, and a
     claimed socket claims its memory links. So reading [c_res] back
     also zeroes every slot this compute touched. *)
  let loadb = t.loadb and flowsb = t.flowsb in
  let rec add_usage i = function
    | [] -> ()
    | (res, coeff) :: rest ->
      loadb.(res) <- loadb.(res) +. (rates.(i) *. coeff);
      flowsb.(res) <- flowsb.(res) + 1;
      add_usage i rest
  in
  for i = 0 to nc - 1 do
    add_usage i c.c_entries.(i).usage
  done;
  Array.iter
    (fun s ->
      match t.socket_mems.(s) with
      | None -> ()
      | Some sm ->
        List.iter (fun (res, co) -> loadb.(res) <- loadb.(res) +. (wb.(s) *. co)) sm.to_mem;
        List.iter (fun (res, co) -> loadb.(res) <- loadb.(res) +. (rr.(s) *. co)) sm.from_mem)
    c.c_sockets;
  let nres = Array.length c.c_res in
  let cr_load = Array.make nres 0.0 and cr_flows = Array.make nres 0 in
  for k = 0 to nres - 1 do
    let res = c.c_res.(k) in
    cr_load.(k) <- loadb.(res);
    cr_flows.(k) <- flowsb.(res);
    loadb.(res) <- 0.0;
    flowsb.(res) <- 0
  done;
  {
    cr_rates = Array.sub rates 0 nc;
    cr_write = write;
    cr_hit = hit;
    cr_wb = wb;
    cr_rr = rr;
    cr_load;
    cr_flows;
    cr_stats =
      {
        Fairshare.solves = !solves;
        full_rebuilds = !solves;
        incremental = 0;
        unchanged = iterations - !solves;
      };
  }

(* Commit one component's result into the fabric, in canonical
   component order, so rate stores, completion-heap pushes and load
   recomputation happen in exactly the same sequence whether the
   result was computed or replayed from the memo. *)
let commit_component t tnow (c : component) (r : comp_result) =
  Array.iteri
    (fun i e ->
      let f = e.flow in
      f.Flow.rate <- r.cr_rates.(i);
      e.hstamp <- e.hstamp + 1;
      if f.Flow.state = Flow.Running && f.Flow.remaining <> infinity && f.Flow.rate > 0.0 then
        U.Heap.push t.cheap (tnow +. Flow.eta_ns f) (e, e.hstamp))
    c.c_entries;
  Array.iter
    (fun s ->
      t.ddio_write.(s) <- r.cr_write.(s);
      t.ddio_hit.(s) <- r.cr_hit.(s);
      t.spill_wb.(s) <- r.cr_wb.(s);
      t.spill_rr.(s) <- r.cr_rr.(s))
    c.c_sockets;
  (* loads and per-resource flow counts were pre-aggregated (in this
     exact float order) by compute_component; just store them *)
  Array.iteri
    (fun i res ->
      t.load.(res) <- r.cr_load.(i);
      t.flows_on.(res) <- r.cr_flows.(i))
    c.c_res

(* {2 Component-result memo}

   [compute_component]'s result is a function of (demand records, conn
   footprints, llc flags, effective capacities at the component's
   resources, cache config) — so its whole result can be replayed
   whenever those inputs recur. This is what makes coupled churn
   cheap: starting/stopping a flow perturbs one giant component, but
   the steady state alternates between exactly two component values,
   and after the first lap both are memoized.

   All comparisons are exact: [feq] compares float bits (the recorder
   digests raw rate bits, so -0.0 vs 0.0 or any ULP would fork the
   trace), and the hot path is pointer equality on the immutable
   per-entry [dem]/[conn] records. *)

let int_array_eq (a : int array) (b : int array) =
  a == b
  || (Array.length a = Array.length b
     &&
     let n = Array.length a in
     let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
     go 0)

let usage_eq u1 u2 =
  u1 == u2 || List.equal (fun (r1, c1) (r2, c2) -> r1 = r2 && feq c1 c2) u1 u2

let demand_eq (d1 : Fairshare.demand) (d2 : Fairshare.demand) =
  d1 == d2
  || (feq d1.Fairshare.weight d2.Fairshare.weight
     && feq d1.Fairshare.floor d2.Fairshare.floor
     && feq d1.Fairshare.cap d2.Fairshare.cap
     && usage_eq d1.Fairshare.usage d2.Fairshare.usage)

let memo_match t (c : component) (m : comp_memo) =
  let n = Array.length c.c_entries in
  m.m_gen = t.cache_gen
  && Array.length m.m_dems = n
  && int_array_eq m.m_res c.c_res
  && int_array_eq m.m_sockets c.c_sockets
  && (let nres = Array.length c.c_res in
      let rec caps_ok i =
        i >= nres || (feq m.m_caps.(i) t.caps.(c.c_res.(i)) && caps_ok (i + 1))
      in
      caps_ok 0)
  && (let rec entries_ok i =
        i >= n
        || (let e = c.c_entries.(i) in
            ((m.m_conn.(i) == e.conn && m.m_dems.(i) == e.dem)
            || (demand_eq m.m_dems.(i) e.dem && int_array_eq m.m_conn.(i) e.conn))
            && m.m_llc.(i) = e.flow.Flow.llc_target)
           && entries_ok (i + 1)
      in
      entries_ok 0)

let memo_find t (c : component) =
  if Array.length c.c_res = 0 then None
  else
    let key = Array.fold_left min c.c_res.(0) c.c_res in
    match Hashtbl.find_opt t.comp_cache key with
    | None -> None
    | Some ms ->
      let rec go = function
        | [] -> None
        | m :: rest -> if memo_match t c m then Some m else go rest
      in
      go ms

let memo_store t (c : component) (r : comp_result) =
  if Array.length c.c_res > 0 then begin
    let key = Array.fold_left min c.c_res.(0) c.c_res in
    let m =
      {
        m_dems = Array.map (fun e -> e.dem) c.c_entries;
        m_conn = Array.map (fun e -> e.conn) c.c_entries;
        m_llc = Array.map (fun e -> e.flow.Flow.llc_target) c.c_entries;
        m_res = c.c_res;
        m_sockets = c.c_sockets;
        m_caps = Array.map (fun res -> t.caps.(res)) c.c_res;
        m_gen = t.cache_gen;
        m_result = r;
        m_epoch = t.epoch;
      }
    in
    (* at most two memos per bucket — the new one plus the most
       recently hit survivor. Churn steady state alternates between
       the with-flow and without-flow values of one component, so two
       slots make every post-warmup epoch a hit. *)
    let keep =
      match Hashtbl.find_opt t.comp_cache key with
      | None | Some [] -> []
      | Some [ x ] -> [ x ]
      | Some (x :: y :: _) -> if x.m_epoch >= y.m_epoch then [ x ] else [ y ]
    in
    Hashtbl.replace t.comp_cache key (m :: keep)
  end

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

let path_latency t ?(payload_bytes = 0) ?(working_set_pages = 32) (path : T.Path.t) =
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
        ~working_set_pages
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
   component, in canonical order, is replayed from the memo or
   computed, then committed, so a memoized run commits byte-identical
   state to a memo-free one. *)
let rec reallocate t seeds =
  if t.in_batch then ()
  else reallocate_now t seeds

and reallocate_now t seeds =
  sync t;
  t.allocs <- t.allocs + 1;
  t.epoch <- t.epoch + 1;
  let tnow = Sim.now t.sim in
  let comps = collect_components t seeds in
  List.iter
    (fun c ->
      let r =
        match if t.warm then memo_find t c else None with
        | Some m ->
          m.m_epoch <- t.epoch;
          t.warm_hits <- t.warm_hits + 1;
          m.m_result
        | None ->
          let r = compute_component t c in
          (* cumulative solver-work ledger; memo hits replay a result
             without solving, so only fresh computes contribute *)
          let s = r.cr_stats and acc = t.solver_stats in
          t.solver_stats <-
            {
              Fairshare.solves = acc.Fairshare.solves + s.Fairshare.solves;
              full_rebuilds = acc.Fairshare.full_rebuilds + s.Fairshare.full_rebuilds;
              incremental = acc.Fairshare.incremental + s.Fairshare.incremental;
              unchanged = acc.Fairshare.unchanged + s.Fairshare.unchanged;
            };
          if t.warm then begin
            t.warm_misses <- t.warm_misses + 1;
            memo_store t c r
          end;
          r
      in
      commit_component t tnow c r)
    comps;
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
  U.Heap.drop_while t.cheap (fun (e, stamp) ->
      stamp <> e.hstamp || e.flow.Flow.state <> Flow.Running);
  (* lazy deletion can leave stale entries below the top; compact when
     they dominate so the heap stays proportional to the live flows *)
  if U.Heap.size t.cheap > 64 + (4 * Hashtbl.length t.entries) then begin
    let live = ref [] in
    while not (U.Heap.is_empty t.cheap) do
      let at = U.Heap.top_prio t.cheap and ((e, stamp) as v) = U.Heap.top t.cheap in
      U.Heap.drop_top t.cheap;
      if stamp = e.hstamp && e.flow.Flow.state = Flow.Running then live := (at, v) :: !live
    done;
    List.iter (fun (at, v) -> U.Heap.push t.cheap at v) !live
  end;
  if not (U.Heap.is_empty t.cheap) then begin
    let at = U.Heap.top_prio t.cheap in
    let epoch = t.epoch in
    Sim.schedule t.sim
      ~after:(Float.max 0.0 (at -. Sim.now t.sim))
      (fun _ -> if epoch = t.epoch then handle_completions t)
  end

and handle_completions t =
  sync t;
  let tnow = Sim.now t.sim in
  let completed = ref [] in
  let continue = ref true in
  while !continue do
    U.Heap.drop_while t.cheap (fun (e, stamp) ->
        stamp <> e.hstamp || e.flow.Flow.state <> Flow.Running);
    if U.Heap.is_empty t.cheap then continue := false
    else begin
      let ((e, _) as top) = U.Heap.top t.cheap in
      let f = e.flow in
      if f.Flow.remaining <= 1.0 then begin
        U.Heap.drop_top t.cheap;
        e.hstamp <- e.hstamp + 1;
        f.Flow.state <- Flow.Completed;
        f.Flow.remaining <- 0.0;
        f.Flow.completed_at <- tnow;
        f.Flow.rate <- 0.0;
        Hashtbl.remove t.entries f.Flow.id;
        unregister t e;
        completed := e :: !completed
      end
      else if U.Heap.top_prio t.cheap <= tnow then begin
        (* fired marginally early (float rounding): re-key to the fresh
           remaining/rate estimate and keep draining *)
        U.Heap.drop_top t.cheap;
        if f.Flow.rate > 0.0 && f.Flow.remaining <> infinity then
          U.Heap.push t.cheap (tnow +. Flow.eta_ns f) top
      end
      else continue := false
    end
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
  List.map
    (fun (hop : T.Path.hop) ->
      (res_of hop.link.T.Link.id hop.dir, hop_coeff t ~payload_bytes ~working_set_pages hop))
    path.T.Path.hops

let start_flow t ~tenant ?(cls = Flow.Payload) ?(weight = 1.0) ?(floor = 0.0) ?(cap = infinity)
    ?(demand = infinity) ?payload_bytes ?(working_set_pages = 32) ?(llc_target = false)
    ?on_complete ~path ~size () =
  if not (T.Path.well_formed t.topo path) then invalid_arg "Fabric.start_flow: malformed path";
  if weight <= 0.0 then invalid_arg "Fabric.start_flow: weight must be positive";
  if floor < 0.0 || cap < 0.0 || demand < 0.0 then
    invalid_arg "Fabric.start_flow: negative rate bound";
  let payload_bytes =
    match payload_bytes with
    | Some p ->
      if p <= 0 then invalid_arg "Fabric.start_flow: payload_bytes must be positive";
      p
    | None -> (T.Topology.config t.topo).T.Hostconfig.pcie_mps
  in
  if llc_target then begin
    let dst_kind = (T.Topology.device t.topo path.T.Path.dst).T.Device.kind in
    match dst_kind with
    | T.Device.Cpu_socket _ -> ()
    | _ -> invalid_arg "Fabric.start_flow: llc_target path must end at a CPU socket"
  end;
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
  let usage = usage_of_path t ~payload_bytes ~working_set_pages path in
  let entry =
    {
      flow;
      usage;
      conn = conn_of t flow usage;
      dem = { Fairshare.weight; floor; cap = Flow.effective_demand flow; usage };
      trow = tenant_row t tenant;
      crow = t.cls_rows.(cls_index cls);
      mark = 0;
      hstamp = 0;
    }
  in
  Hashtbl.replace t.entries flow.Flow.id entry;
  register t entry;
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
      e.hstamp <- e.hstamp + 1;
      Hashtbl.remove t.entries f.Flow.id;
      unregister t e;
      reallocate t e.conn
    | None -> ());
    emit t (Flow_stopped f)
  end

let set_flow_limits t (f : Flow.t) ?weight ?floor ?cap () =
  Option.iter (fun w -> if w <= 0.0 then invalid_arg "set_flow_limits: weight" else f.Flow.weight <- w) weight;
  Option.iter (fun x -> if x < 0.0 then invalid_arg "set_flow_limits: floor" else f.Flow.floor <- x) floor;
  Option.iter (fun x -> if x < 0.0 then invalid_arg "set_flow_limits: cap" else f.Flow.cap <- x) cap;
  if f.Flow.state = Flow.Running then
    match Hashtbl.find_opt t.entries f.Flow.id with
    | Some e ->
      e.dem <- demand_of_entry e;
      reallocate t e.conn;
      if t.listeners <> [] then emit t (Limits_changed f)
    | None -> reallocate t (all_seeds t)

let active_flows t =
  Hashtbl.fold (fun _ e acc -> e.flow :: acc) t.entries []
  |> List.sort (fun (a : Flow.t) b -> compare a.Flow.id b.Flow.id)

let find_flow t id = Option.map (fun e -> e.flow) (Hashtbl.find_opt t.entries id)
let flow_count t = Hashtbl.length t.entries
let refresh t = observed_sync t

let batch t f =
  if t.in_batch then f ()
  else begin
    if t.listeners <> [] then emit t Batch_started;
    t.in_batch <- true;
    Fun.protect
      ~finally:(fun () ->
        t.in_batch <- false;
        reallocate t (all_seeds t);
        if t.listeners <> [] then emit t Batch_ended)
      f
  end

let transfer_time t ~path ~bytes =
  let usage = usage_of_path t ~payload_bytes:(T.Topology.config t.topo).T.Hostconfig.pcie_mps ~working_set_pages:32 path in
  (* the probe only contends with its own component; everything else
     is resource-disjoint and cannot shift its allocation *)
  collect_component t (Array.of_list (List.map fst usage));
  let nc = U.Vec.length t.comp_entries in
  reserve_solve t (nc + 1);
  for i = 0 to nc - 1 do
    t.solve_dems.(i) <- (U.Vec.get t.comp_entries i).dem
  done;
  t.solve_dems.(nc) <- { Fairshare.weight = 1.0; floor = 0.0; cap = infinity; usage };
  Fairshare.allocate_into ~capacities:t.caps ~n:(nc + 1) t.solve_dems t.solve_rates;
  let rate = t.solve_rates.(nc) in
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

let tenant_bytes t ~tenant =
  observed_sync t;
  match Hashtbl.find_opt t.tenant_rows tenant with
  | Some row -> Array.fold_left ( +. ) 0.0 row
  | None -> 0.0

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
  (* the cache model is an input to every memoized component result:
     bump the generation (cheap, future-proof against gen reuse) and
     drop the memos outright *)
  t.cache_gen <- t.cache_gen + 1;
  Hashtbl.reset t.comp_cache;
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
let warm_enabled t = t.warm
let warm_hits t = t.warm_hits
let warm_misses t = t.warm_misses

(* {2 Out-of-band scan exposition}

   The boundary-scan view of the fabric: every accessor below is a pure
   read of committed state. None of them syncs the lazy byte
   integration, emits an event, draws from the RNG, touches heap
   generations or perturbs the component memo — the zero-impact contract
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
  List.map
    (fun (at, (e, stamp)) ->
      (at, e.flow.Flow.id, stamp, stamp = e.hstamp && e.flow.Flow.state = Flow.Running))
    (U.Heap.to_list t.cheap)

let scan_memo_keys t =
  Hashtbl.fold
    (fun key ms acc ->
      List.fold_left (fun acc m -> (key, Array.length m.m_dems, m.m_epoch) :: acc) acc ms)
    t.comp_cache []
  |> List.sort compare

let scan_solver_stats t = t.solver_stats

(* Advance the simulation by whole reallocation epochs: execute queued
   events one at a time until the epoch counter moves past where it
   was, then stop — the single-step half of the scan port's
   freeze/step protocol. Between calls the fabric is exactly at an
   epoch boundary (nothing runs unless the sim is driven). *)
let step_epoch t =
  let start = t.epoch in
  let rec go () = t.epoch > start || (Sim.step t.sim && go ()) in
  go ()
