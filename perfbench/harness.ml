(* The closed loop every workload runs in, and what it measures.

   A workload is a state built by [setup] and an [op] over it. The
   harness builds the state, runs untimed warm-up ops, then a fixed
   number of timed ops, one at a time from this thread: the next op
   starts when the previous one has returned, so a slower program
   receives less load. The op count is the workload's fixed rate times
   the run's nominal length and is never adapted to the machine's
   speed.

   The machine this runs on switches between two speeds about 1.7x
   apart and may stay in either for a whole run, so a raw wall time
   says as much about the machine as about the program. The harness
   therefore samples the machine-speed probe (calib.ml) before the
   first op and after every [probe_every] ops, and scales each op's
   latency by [Calib.reference_ns] over the mean of the two samples
   around it: the op's latency on a machine of reference speed. The
   raw latencies are kept and printed beside the normalised ones.

   Set-up time is normalised the same way, by the samples taken just
   before and just after the set-up. One set-up is one sample of
   set-up time, too few for a metric of a few milliseconds, and a burst
   of set-ups lands in a single phase of the machine. So at [blocks]
   points spread evenly over the timed ops, the caller times an
   identical set-up in a fresh process and waits for it. The state the
   ops run against stays the only large state in this process, and no
   other set-up's garbage is collected between the timed ops. *)

let blocks = 20

type 'st workload = {
  rate : float;  (** Timed ops per second of the run's nominal length. *)
  warmup : int;  (** Untimed ops between set-up and the timed region. *)
  setups : int;  (** Set-ups timed per run: the live one, then repeats. *)
  probe_every : int;  (** Timed ops between two probe samples. *)
  setup : seed:int -> traced:bool -> Span.t -> 'st;
      (** Everything the ops run against: construction, preloaded
          flows, converged placements, a bound daemon, connected
          clients. [traced] installs the bench-owned event counters. *)
  teardown : 'st -> unit;  (** Releases the state's sockets and files. *)
  op : 'st -> int -> bool;  (** One op; [false] or an exception is a failed op. *)
  gate : check:bool -> 'st -> string list * int;
      (** Correctness checks after the timed region: the failures found,
          and how many of them count as failed ops. [check] enables the
          expensive ones. *)
  digest : 'st -> string;  (** Final simulated state, for the determinism tests. *)
  counters : 'st -> (string * float) list;  (** Cumulative layer counters. *)
  layer : ops:float -> delta:(string -> float) -> (string * float) list;
      (** Per-layer metrics from the counters' change over the timed
          region. *)
}

type gc = { minor_words : float; promoted_words : float; major_collections : int }

type result = {
  setup_ns : int list;  (** The live set-up, then the repeats; normalised. *)
  op_ns : int array;  (** Wall latency of each timed op. *)
  scale : float array;
      (** Per op, [Calib.reference_ns] over the mean probe time around
          it; [op_ns.(i) *. scale.(i)] is the normalised latency. *)
  probe_ns : int array;  (** Every probe sample, in order. *)
  attempted : int;
  failed : int;
  gate : string list;
  digest : string;
  layer : (string * float) list;
  spans : Span.t;
  gc : gc;  (** Summed over the timed ops. *)
  pause_ns : int;  (** GC pause time within the timed ops (traced runs). *)
  lost_events : int;
  top_heap_words : int;  (** Peak major heap up to the end of the timed region. *)
}

let median_int xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) + a.(n / 2)) / 2

(* nearest-rank percentile of a sorted, non-empty array *)
let percentile sorted q =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) k))

type timing = { ops_per_s : float; p50_ns : float; p99_ns : float }

(* throughput over the ops' own time, and the median and 99th
   percentile of their latencies *)
let timing lat =
  let sorted = Array.copy lat in
  Array.sort Float.compare sorted;
  {
    ops_per_s = float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0.0 lat /. 1e9);
    p50_ns = percentile sorted 0.5;
    p99_ns = percentile sorted 0.99;
  }

(* Per op, [Calib.reference_ns] over the mean of the probe samples
   taken just before and just after it. Sample 0 precedes op 0, and
   sample [k + 1] follows op [(k + 1) * every - 1] or the last op. *)
let scales ~every ~ops probe_ns =
  Array.init ops (fun i ->
      let k = i / every in
      Calib.reference_ns /. (float_of_int (probe_ns.(k) + probe_ns.(k + 1)) /. 2.0))

(* [f ()] and its wall time in ns, normalised by the probe samples
   taken just before and just after it *)
let timed f =
  let p0 = Calib.sample () in
  let t0 = Span.now () in
  let x = f () in
  let ns = Span.now () - t0 in
  let p1 = Calib.sample () in
  (x, int_of_float (Float.round (float_of_int ns *. (scales ~every:1 ~ops:1 [| p0; p1 |]).(0))))

(* one untraced set-up, timed and torn down *)
let time_setup w ~seed =
  let st, ns = timed (fun () -> w.setup ~seed ~traced:false (Span.create ())) in
  w.teardown st;
  ns

(* [repeat_setup ()] times one more set-up outside this process *)
let run (w : 'st workload) ~seed ~seconds ~traced ~check ~repeat_setup =
  let spans = Span.create () in
  let st, live_setup_ns = timed (fun () -> w.setup ~seed ~traced spans) in
  let setup_ns = ref [ live_setup_ns ] in
  let attempted = ref 0 and failed = ref 0 in
  let attempt i =
    incr attempted;
    match w.op st i with
    | true -> ()
    | false -> incr failed
    | exception e ->
      incr failed;
      Printf.eprintf "perfbench: op %d raised %s\n%!" i (Printexc.to_string e)
  in
  for i = 0 to w.warmup - 1 do
    attempt i
  done;
  let gc_probe = if traced then Some (Gc_probe.start ()) else None in
  let pause () = match gc_probe with Some p -> Gc_probe.read p | None -> (0, 0) in
  let before = w.counters st in
  let ops = max 1 (int_of_float (Float.round (w.rate *. seconds))) in
  let op_ns = Array.make ops 0 in
  let every = max 1 w.probe_every in
  let probe_ns = Array.make (((ops - 1) / every) + 2) 0 in
  let blocks = min blocks ops in
  let repeats = max 0 (w.setups - 1) in
  let repeats_before = Array.make blocks 0 in
  for k = 0 to repeats - 1 do
    let b = k * blocks / repeats in
    repeats_before.(b) <- repeats_before.(b) + 1
  done;
  let minor = ref 0.0 and promoted = ref 0.0 and majors = ref 0 in
  let pause_ns = ref 0 and lost = ref 0 in
  probe_ns.(0) <- Calib.sample ();
  for b = 0 to blocks - 1 do
    for _ = 1 to repeats_before.(b) do
      setup_ns := repeat_setup () :: !setup_ns
    done;
    let lo = b * ops / blocks and hi = (b + 1) * ops / blocks in
    let g0 = Gc.quick_stat () and p0, l0 = pause () in
    if traced then Span.switch_on spans;
    for i = lo to hi - 1 do
      let s = Span.now () in
      Span.op_begin spans i;
      attempt (w.warmup + i);
      Span.op_end spans;
      op_ns.(i) <- Span.now () - s;
      if (i + 1) mod every = 0 || i = ops - 1 then probe_ns.((i / every) + 1) <- Calib.sample ();
      Option.iter Gc_probe.poll gc_probe
    done;
    Span.switch_off spans;
    let g1 = Gc.quick_stat () and p1, l1 = pause () in
    minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
    majors := !majors + g1.Gc.major_collections - g0.Gc.major_collections;
    pause_ns := !pause_ns + p1 - p0;
    lost := !lost + l1 - l0
  done;
  (* read before anything whose allocation depends on a timing, such
     as sorting the latencies, so that it repeats for a seed *)
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let scale = scales ~every ~ops probe_ns in
  let after = w.counters st in
  let delta name =
    match (List.assoc_opt name after, List.assoc_opt name before) with
    | Some a, Some b -> a -. b
    | _ -> invalid_arg ("Harness.run: unknown counter " ^ name)
  in
  let layer = w.layer ~ops:(float_of_int ops) ~delta in
  let gate, late_failures = w.gate ~check st in
  let digest = w.digest st in
  w.teardown st;
  {
    setup_ns = List.rev !setup_ns;
    op_ns;
    scale;
    probe_ns;
    attempted = !attempted;
    failed = !failed + late_failures;
    gate;
    digest;
    layer;
    spans;
    gc = { minor_words = !minor; promoted_words = !promoted; major_collections = !majors };
    pause_ns = !pause_ns;
    lost_events = !lost;
    top_heap_words;
  }

(* normalised latency of each timed op, ns *)
let normalised r = Array.mapi (fun i ns -> float_of_int ns *. r.scale.(i)) r.op_ns
