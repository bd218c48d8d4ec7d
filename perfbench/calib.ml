(* Machine-speed probe.

   The VM this benchmark runs on switches between speeds about 1.7x
   apart, for seconds to minutes at a time, and every timing moves with
   it. A tight arithmetic loop barely notices the switch, so it cannot
   serve as a yardstick. What tracks the workloads is code like theirs:
   dependent loads through calls, with a working set a little larger
   than L1. The probe is such a loop: a walk along a random cycle of
   8192 ints (64 KiB), each hop a call into the runtime's generic
   Bigarray accessor, which the compiler emits because [get] does not
   know the array's kind. It reads an off-heap array and allocates
   nothing, so it leaves the workload's heap and GC counts alone.

   [sample] runs one untimed pass to pull the ring back into the
   caches the workload evicted it from, then times a second pass. The
   harness samples it between ops and divides each op's latency by the
   probe time around it (see harness.ml). *)

open Bigarray

let cells = 8192
let hops = 2000

(* A probe pass takes this long on a machine of reference speed; a
   normalised time is a wall time scaled by [reference_ns / sample]. On
   the 2-vCPU VM the benchmark was tuned on, a pass took 13-14 µs in the
   fast state and 20-25 µs in the slow one. *)
let reference_ns = 20_000.0

let ring : (int, int_elt, c_layout) Array1.t = Array1.create int c_layout cells

(* one cycle through all cells (Sattolo's shuffle), the same every run *)
let () =
  for i = 0 to cells - 1 do
    Array1.unsafe_set ring i i
  done;
  let rng = Random.State.make [| cells |] in
  for i = cells - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = Array1.unsafe_get ring i in
    Array1.unsafe_set ring i (Array1.unsafe_get ring j);
    Array1.unsafe_set ring j t
  done

(* the array's kind is abstract here, so each access is a call *)
let get : (int, 'k, 'l) Array1.t -> int -> int = fun a i -> Array1.get a i

(* where the last walk ended; storing it keeps the walk from being
   optimised away *)
let last = ref 0

let kernel () =
  let p = ref 0 in
  for _ = 1 to hops do
    p := get ring !p
  done;
  last := !p

(* wall time of one warm pass, ns *)
let sample () =
  kernel ();
  let t0 = Span.now () in
  kernel ();
  Span.now () - t0
