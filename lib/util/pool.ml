(* A batch owns its atomics so a straggling worker that wakes up late
   can never pull indices from (or decrement the pending count of) a
   newer batch: it drains the record it grabbed, finds the counter
   exhausted, and goes back to sleep. *)
type batch = {
  run : int -> unit;
  n : int;
  next : int Atomic.t; (* next unclaimed task index *)
  pending : int Atomic.t; (* tasks not yet completed *)
  err : exn option Atomic.t; (* first exception, re-raised by [map] *)
}

type t = {
  m : Mutex.t;
  work : Condition.t; (* a batch was published, or stop was set *)
  finished : Condition.t; (* a batch's pending count reached zero *)
  mutable batch : batch option;
  mutable gen : int; (* bumped per published batch *)
  mutable width : int; (* the published batch's width: workers 1 .. width - 1 join it *)
  mutable workers : unit Domain.t list;
  mutable nworkers : int;
  mutable stop : bool;
  mutable shut : bool;
}

let clamp n = max 1 (min 64 n)
let size t = t.nworkers + 1

(* Pull indices until the batch is exhausted. Runs on workers and on
   the coordinator alike; the last task completion signals [finished]
   under the pool mutex so the coordinator's predicate re-check cannot
   miss it. *)
let drain t (b : batch) =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add b.next 1 in
    if i >= b.n then continue := false
    else begin
      (try b.run i
       with e -> ignore (Atomic.compare_and_set b.err None (Some e)));
      if Atomic.fetch_and_add b.pending (-1) = 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.finished;
        Mutex.unlock t.m
      end
    end
  done

(* Worker [k] (1-based) joins only batches wider than [k]; the others
   stay parked through them. *)
let worker t k init_gen () =
  let last = ref init_gen in
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    while (not t.stop) && (t.gen = !last || k >= t.width) do
      Condition.wait t.work t.m
    done;
    if t.stop then begin
      Mutex.unlock t.m;
      running := false
    end
    else begin
      last := t.gen;
      let b = t.batch in
      Mutex.unlock t.m;
      match b with Some b -> drain t b | None -> ()
    end
  done

let spawn_workers t k =
  Mutex.lock t.m;
  let g = t.gen in
  Mutex.unlock t.m;
  for _ = 1 to k do
    t.nworkers <- t.nworkers + 1;
    t.workers <- Domain.spawn (worker t t.nworkers g) :: t.workers
  done

let create n =
  let n = clamp n in
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      gen = 0;
      width = 1;
      workers = [];
      nworkers = 0;
      stop = false;
      shut = false;
    }
  in
  spawn_workers t (n - 1);
  t

let grow t n =
  let n = clamp n in
  if size t < n then spawn_workers t (n - size t)

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- [];
    t.nworkers <- 0
  end

let iter t ~width n f =
  if t.shut then invalid_arg "Pool.iter: pool is shut down";
  let width = min (clamp width) (size t) in
  if n <= 1 || width = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let b =
      { run = f; n; next = Atomic.make 0; pending = Atomic.make n; err = Atomic.make None }
    in
    Mutex.lock t.m;
    t.batch <- Some b;
    t.gen <- t.gen + 1;
    t.width <- width;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    drain t b;
    Mutex.lock t.m;
    while Atomic.get b.pending > 0 do
      Condition.wait t.finished t.m
    done;
    t.batch <- None;
    Mutex.unlock t.m;
    match Atomic.get b.err with Some e -> raise e | None -> ()
  end

let map t n f =
  let results = Array.make n None in
  iter t ~width:(size t) n (fun i -> results.(i) <- Some (f i));
  Array.map (function Some v -> v | None -> assert false) results

let default_domains =
  let v =
    lazy
      (match Sys.getenv_opt "IHNET_DOMAINS" with
      | Some s -> ( try clamp (int_of_string (String.trim s)) with _ -> 1)
      | None -> 1)
  in
  fun () -> Lazy.force v

let shared : t option ref = ref None
let exit_hooked = ref false

let get n =
  let fresh () =
    let p = create n in
    shared := Some p;
    if not !exit_hooked then begin
      exit_hooked := true;
      at_exit (fun () -> Option.iter shutdown !shared)
    end;
    p
  in
  match !shared with
  | Some p when not p.shut ->
    grow p n;
    p
  | _ -> fresh ()
