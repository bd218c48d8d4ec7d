(* Unit and property tests for ihnet_util. *)

open Ihnet_util

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg expected actual = Alcotest.(check (float eps)) msg expected actual
let tc name f = Alcotest.test_case name `Quick f
let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* {1 Units} *)

let units_tests =
  [
    tc "us/ms/s conversions" (fun () ->
        check_float "us" 1_000.0 (Units.us 1.0);
        check_float "ms" 1_000_000.0 (Units.ms 1.0);
        check_float "s" 1e9 (Units.s 1.0);
        check_float "roundtrip" 2.5 (Units.ns_to_us (Units.us 2.5)));
    tc "gbps is bytes per second" (fun () ->
        check_float "200 Gbps" 25e9 (Units.gbps 200.0);
        check_close "to_gbps" 200.0 (Units.to_gbps (Units.gbps 200.0)));
    tc "binary sizes" (fun () ->
        check_float "1 GiB" 1073741824.0 (Units.gib 1.0);
        check_float "1 KiB" 1024.0 (Units.kib 1.0));
    tc "pp_rate picks sane unit" (fun () ->
        let s = Format.asprintf "%a" Units.pp_rate (Units.gbytes_per_s 25.0) in
        Alcotest.(check string) "GB/s" "25.0 GB/s" s);
    tc "pp_time picks sane unit" (fun () ->
        let s = Format.asprintf "%a" Units.pp_time 1500.0 in
        Alcotest.(check string) "us" "1.50 us" s);
  ]

(* {1 Rng} *)

let rng_tests =
  [
    tc "determinism: equal seeds, equal streams" (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same" (Rng.bits64 a) (Rng.bits64 b)
        done);
    tc "different seeds diverge" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        Alcotest.(check bool) "differ" true (Rng.bits64 a <> Rng.bits64 b));
    tc "split streams are independent of later parent draws" (fun () ->
        let parent1 = Rng.create 5 in
        let child1 = Rng.split parent1 in
        let first_child_draws = List.init 10 (fun _ -> Rng.bits64 child1) in
        let parent2 = Rng.create 5 in
        let child2 = Rng.split parent2 in
        (* drawing from parent2 must not affect child2's stream *)
        ignore (Rng.bits64 parent2);
        let second_child_draws = List.init 10 (fun _ -> Rng.bits64 child2) in
        Alcotest.(check (list int64)) "same" first_child_draws second_child_draws);
    tc "int bounds" (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
        done);
    tc "uniform respects bounds" (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.uniform r 5.0 9.0 in
          Alcotest.(check bool) "in range" true (v >= 5.0 && v < 9.0)
        done);
    tc "exponential mean is approximately right" (fun () ->
        let r = Rng.create 11 in
        let n = 20_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Rng.exponential r 3.0
        done;
        let m = !sum /. float_of_int n in
        Alcotest.(check bool) "within 5%" true (Float.abs (m -. 3.0) < 0.15));
    tc "pareto respects x_min" (fun () ->
        let r = Rng.create 13 in
        for _ = 1 to 1000 do
          Alcotest.(check bool) "geq x_min" true (Rng.pareto r 1.5 2.0 >= 2.0)
        done);
    tc "gaussian mean/stddev roughly right" (fun () ->
        let r = Rng.create 17 in
        let n = 20_000 in
        let stats = Stats.Online.create () in
        for _ = 1 to n do
          Stats.Online.add stats (Rng.gaussian r 10.0 2.0)
        done;
        Alcotest.(check bool) "mean" true (Float.abs (Stats.Online.mean stats -. 10.0) < 0.1);
        Alcotest.(check bool) "stddev" true (Float.abs (Stats.Online.stddev stats -. 2.0) < 0.1));
    tc "zipf ranks in range and skewed" (fun () ->
        let r = Rng.create 19 in
        let n = 10_000 in
        let count1 = ref 0 in
        for _ = 1 to n do
          let k = Rng.zipf r 100 1.2 in
          Alcotest.(check bool) "range" true (k >= 1 && k <= 100);
          if k = 1 then incr count1
        done;
        (* rank 1 should be much more popular than uniform (1%) *)
        Alcotest.(check bool) "skew" true (!count1 > n / 20));
    tc "shuffle permutes" (fun () ->
        let r = Rng.create 23 in
        let a = Array.init 50 Fun.id in
        Rng.shuffle r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted);
    prop "float t x stays in [0,x)" QCheck.(pair small_int (float_range 0.1 1e6))
      (fun (seed, x) ->
        let r = Rng.create seed in
        let v = Rng.float r x in
        v >= 0.0 && v < x);
  ]

(* {1 Stats} *)

let stats_tests =
  [
    tc "summarize basic" (fun () ->
        let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
        check_float "mean" 3.0 s.Stats.mean;
        check_float "min" 1.0 s.Stats.min;
        check_float "max" 5.0 s.Stats.max;
        check_float "p50" 3.0 s.Stats.p50;
        Alcotest.(check int) "count" 5 s.Stats.count);
    tc "percentile interpolates" (fun () ->
        let xs = [| 0.0; 10.0 |] in
        check_float "p50" 5.0 (Stats.percentile xs 0.5);
        check_float "p0" 0.0 (Stats.percentile xs 0.0);
        check_float "p100" 10.0 (Stats.percentile xs 1.0));
    tc "empty summary is nan" (fun () ->
        let s = Stats.summarize [||] in
        Alcotest.(check bool) "nan" true (Float.is_nan s.Stats.mean));
    tc "online matches batch" (fun () ->
        let xs = [| 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 |] in
        let o = Stats.Online.create () in
        Array.iter (Stats.Online.add o) xs;
        check_close "mean" (Stats.mean xs) (Stats.Online.mean o);
        check_close "stddev" (Stats.stddev xs) (Stats.Online.stddev o));
    tc "ewma tracks level shift" (fun () ->
        let e = Stats.Ewma.create ~alpha:0.3 in
        for _ = 1 to 50 do
          Stats.Ewma.add e 10.0
        done;
        check_close "settled" 10.0 (Stats.Ewma.value e);
        (* a 5-sigma jump has large deviation *)
        for _ = 1 to 50 do
          Stats.Ewma.add e (10.0 +. Rng.gaussian (Rng.create 1) 0.0 0.1)
        done;
        Alcotest.(check bool) "deviation large on jump" true (Stats.Ewma.deviation e 20.0 > 3.0));
    tc "cusum fires on persistent shift, not noise" (fun () ->
        let c = Stats.Cusum.create ~threshold:5.0 () in
        let r = Rng.create 29 in
        let fired = ref false in
        (* in-control noise *)
        for _ = 1 to 200 do
          match Stats.Cusum.add c ~expected:0.0 ~sigma:1.0 (Rng.gaussian r 0.0 1.0) with
          | `Alarm _ -> fired := true
          | `Ok -> ()
        done;
        Alcotest.(check bool) "quiet in control" false !fired;
        (* persistent 2-sigma shift *)
        let alarm = ref false in
        for _ = 1 to 50 do
          match Stats.Cusum.add c ~expected:0.0 ~sigma:1.0 (2.0 +. Rng.gaussian r 0.0 0.3) with
          | `Alarm `Up -> alarm := true
          | `Alarm `Down | `Ok -> ()
        done;
        Alcotest.(check bool) "fires on shift" true !alarm);
    tc "cusum detects downward shift" (fun () ->
        let c = Stats.Cusum.create ~threshold:4.0 () in
        let alarm = ref false in
        for _ = 1 to 50 do
          match Stats.Cusum.add c ~expected:10.0 ~sigma:1.0 7.0 with
          | `Alarm `Down -> alarm := true
          | `Alarm `Up | `Ok -> ()
        done;
        Alcotest.(check bool) "down alarm" true !alarm);
    prop "percentile is monotone in q" QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.0))
      (fun xs ->
        let a = Array.of_list xs in
        Array.sort compare a;
        Stats.percentile a 0.25 <= Stats.percentile a 0.75);
  ]

(* {1 Histogram} *)

let histogram_tests =
  [
    tc "mean exact, percentile approximate" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 100.0; 200.0; 300.0; 400.0 ];
        check_close "mean" 250.0 (Histogram.mean h);
        Alcotest.(check int) "count" 4 (Histogram.count h);
        let p50 = Histogram.percentile h 0.5 in
        Alcotest.(check bool) "p50 near 200" true (p50 >= 180.0 && p50 <= 320.0));
    tc "bounded relative error" (fun () ->
        let h = Histogram.create ~sub:64 () in
        let v = 12345.678 in
        Histogram.add h v;
        let got = Histogram.percentile h 0.5 in
        Alcotest.(check bool) "3% error" true (Float.abs (got -. v) /. v < 0.03));
    tc "ignores negatives and nan" (fun () ->
        let h = Histogram.create () in
        Histogram.add h (-1.0);
        Histogram.add h Float.nan;
        Alcotest.(check int) "empty" 0 (Histogram.count h));
    tc "merge combines counts" (fun () ->
        let a = Histogram.create () and b = Histogram.create () in
        Histogram.add a 10.0;
        Histogram.add b 20.0;
        Histogram.merge a b;
        Alcotest.(check int) "count" 2 (Histogram.count a);
        check_close "max" 20.0 (Histogram.max_value a));
    tc "clear resets" (fun () ->
        let h = Histogram.create () in
        Histogram.add h 5.0;
        Histogram.clear h;
        Alcotest.(check int) "count" 0 (Histogram.count h);
        Alcotest.(check bool) "mean nan" true (Float.is_nan (Histogram.mean h)));
    prop "p99 >= p50 >= min" QCheck.(list_of_size Gen.(int_range 1 100) (float_range 0.001 1e6))
      (fun xs ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) xs;
        let p50 = Histogram.percentile h 0.5 and p99 = Histogram.percentile h 0.99 in
        p99 >= p50 *. 0.999);
    tc "infinity is ignored, not binned" (fun () ->
        (* regression: add used to compute a bucket for infinity and
           blow up the octave index *)
        let h = Histogram.create () in
        Histogram.add h infinity;
        Histogram.add h neg_infinity;
        Alcotest.(check int) "empty" 0 (Histogram.count h);
        Histogram.add h 1.0;
        Histogram.add h infinity;
        Alcotest.(check int) "finite only" 1 (Histogram.count h);
        Alcotest.(check (float 1e-9)) "max unpolluted" 1.0 (Histogram.max_value h));
    tc "octave boundary: pred 8.0 stays in its octave" (fun () ->
        (* regression: floor (log2 v) rounds Float.pred 8.0 UP to 3.0
           in doubles, mis-binning it into the [8,16) octave; frexp is
           exact. The estimate must stay within the value's true
           bucket, hence strictly below 8. *)
        let v = Float.pred 8.0 in
        let h = Histogram.create () in
        Histogram.add h v;
        let got = Histogram.percentile h 0.5 in
        Alcotest.(check bool) "within [4,8)" true (got >= 4.0 && got < 8.0));
    tc "percentile never leaves the observed range" (fun () ->
        (* regression: a lone 513 used to report its bucket midpoint
           520 — above every recorded value *)
        let h = Histogram.create () in
        Histogram.add h 513.0;
        Alcotest.(check (float 1e-9)) "clamped to max" 513.0 (Histogram.percentile h 0.99));
    prop "percentile bounded by min/max"
      QCheck.(list_of_size Gen.(int_range 1 100) (float_range 0.001 1e6))
      (fun xs ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) xs;
        let p = Histogram.percentile h 0.99 in
        p >= Histogram.min_value h && p <= Histogram.max_value h);
  ]

(* {1 Heap} *)

(* Whether a major collection frees a value pushed by [push] and taken
   out again by [remove], while the heap itself stays reachable: only
   the heap could still reference the value, which is built inside the
   closure [push] calls. *)
let freed_after ~push ~remove =
  let w = Weak.create 1 in
  let h = Heap.create () in
  push h (fun () ->
      let v = Bytes.make 1024 'v' in
      Weak.set w 0 (Some v);
      v);
  remove h;
  Gc.full_major ();
  let freed = not (Weak.check w 0) in
  ignore (Sys.opaque_identity h);
  freed

(* A first value, pushed and dropped, sizes the arrays, so the watched
   value is not the one [grow] fills the spare slots with. *)
let removal_frees name remove =
  tc (name ^ " leaves the removed value unreachable") (fun () ->
      let push h fresh =
        Heap.push h 0.0 (Bytes.make 8 'd');
        Heap.drop_top h;
        Heap.push h 1.0 (fresh ())
      in
      Alcotest.(check bool) "freed" true (freed_after ~push ~remove))

let heap_tests =
  [
    removal_frees "drop_top" Heap.drop_top;
    removal_frees "pop" (fun h -> ignore (Heap.pop h));
    removal_frees "drop_while" (fun h -> Heap.drop_while h (fun _ -> true));
    removal_frees "clear" Heap.clear;
    tc "grow's spare slots leave a removed value unreachable" (fun () ->
        (* the watched value is the first pushed, so grow sizes the
           arrays on its push; a later value stays in the heap *)
        let push h fresh =
          Heap.push h 1.0 (fresh ());
          Heap.push h 2.0 (Bytes.make 8 'y')
        in
        Alcotest.(check bool) "freed" true (freed_after ~push ~remove:Heap.drop_top));
    tc "pops in priority order" (fun () ->
        let h = Heap.create () in
        List.iter (fun p -> Heap.push h p (int_of_float p)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
        let out = ref [] in
        let rec drain () =
          match Heap.pop h with
          | Some (_, v) ->
            out := v :: !out;
            drain ()
          | None -> ()
        in
        drain ();
        Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !out));
    tc "fifo among equal priorities" (fun () ->
        let h = Heap.create () in
        List.iter (fun v -> Heap.push h 1.0 v) [ "a"; "b"; "c" ];
        let next () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
        let x1 = next () in
        let x2 = next () in
        let x3 = next () in
        Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] [ x1; x2; x3 ]);
    tc "peek does not remove" (fun () ->
        let h = Heap.create () in
        Heap.push h 2.0 "x";
        Heap.push h 3.0 "y";
        Alcotest.(check bool) "peek" true (Heap.peek h = Some (2.0, "x"));
        Alcotest.(check (float 0.0)) "top_prio" 2.0 (Heap.top_prio h);
        Alcotest.(check string) "top" "x" (Heap.top h);
        Alcotest.(check int) "size" 2 (Heap.size h);
        Heap.drop_top h;
        Alcotest.(check bool) "drop_top removes the top" true (Heap.peek h = Some (3.0, "y")));
    tc "empty pops None" (fun () ->
        let h : int Heap.t = Heap.create () in
        Alcotest.(check bool) "none" true (Heap.pop h = None);
        let raises name f =
          match f () with
          | () -> Alcotest.failf "%s on an empty heap returned" name
          | exception Invalid_argument _ -> ()
        in
        raises "top_prio" (fun () -> ignore (Heap.top_prio h));
        raises "top" (fun () -> ignore (Heap.top h));
        raises "drop_top" (fun () -> Heap.drop_top h));
    prop "heap sort equals List.sort" QCheck.(list (float_range 0.0 1000.0))
      (fun xs ->
        let h = Heap.create () in
        List.iter (fun x -> Heap.push h x x) xs;
        let drained = List.map fst (Heap.to_list h) in
        (* the top accessors drain in the same order pop does *)
        let rec via_top acc =
          if Heap.is_empty h then List.rev acc
          else begin
            let p = Heap.top_prio h in
            Heap.drop_top h;
            via_top (p :: acc)
          end
        in
        drained = List.sort compare xs && via_top [] = drained);
  ]

(* {1 Ring buffer} *)

let ring_tests =
  [
    tc "keeps the newest when full" (fun () ->
        let r = Ring_buffer.create 3 in
        List.iter (Ring_buffer.push r) [ 1; 2; 3; 4; 5 ];
        Alcotest.(check (list int)) "window" [ 3; 4; 5 ] (Ring_buffer.to_list r);
        Alcotest.(check int) "dropped" 2 (Ring_buffer.dropped r));
    tc "oldest and newest" (fun () ->
        let r = Ring_buffer.create 4 in
        List.iter (Ring_buffer.push r) [ 10; 20; 30 ];
        Alcotest.(check (option int)) "oldest" (Some 10) (Ring_buffer.oldest r);
        Alcotest.(check (option int)) "newest" (Some 30) (Ring_buffer.newest r));
    tc "get bounds" (fun () ->
        let r = Ring_buffer.create 2 in
        Ring_buffer.push r 1;
        Alcotest.check_raises "oob" (Invalid_argument "Ring_buffer.get") (fun () ->
            ignore (Ring_buffer.get r 1)));
    tc "clear" (fun () ->
        let r = Ring_buffer.create 2 in
        Ring_buffer.push r 1;
        Ring_buffer.clear r;
        Alcotest.(check int) "len" 0 (Ring_buffer.length r));
    prop "length never exceeds capacity" QCheck.(pair (int_range 1 20) (list small_int))
      (fun (cap, xs) ->
        let r = Ring_buffer.create cap in
        List.iter (Ring_buffer.push r) xs;
        Ring_buffer.length r <= cap
        && Ring_buffer.length r = min cap (List.length xs));
    prop "to_list is the newest-cap suffix of the pushes"
      QCheck.(pair (int_range 1 16) (list small_int))
      (fun (cap, xs) ->
        let r = Ring_buffer.create cap in
        List.iter (Ring_buffer.push r) xs;
        let n = List.length xs in
        let expect = List.filteri (fun i _ -> i >= n - cap) xs in
        Ring_buffer.to_list r = expect
        && Ring_buffer.dropped r = max 0 (n - cap)
        && Ring_buffer.oldest r = (match expect with [] -> None | x :: _ -> Some x)
        && Ring_buffer.newest r
           = (match List.rev expect with [] -> None | x :: _ -> Some x));
    prop "get, iter and fold agree with to_list"
      QCheck.(pair (int_range 1 16) (list small_int))
      (fun (cap, xs) ->
        let r = Ring_buffer.create cap in
        List.iter (Ring_buffer.push r) xs;
        let window = Ring_buffer.to_list r in
        let via_get = List.init (Ring_buffer.length r) (Ring_buffer.get r) in
        let via_iter = ref [] in
        Ring_buffer.iter (fun x -> via_iter := x :: !via_iter) r;
        via_get = window
        && List.rev !via_iter = window
        && Ring_buffer.fold (fun acc x -> x :: acc) [] r = !via_iter);
  ]

(* {1 Table} *)

let table_tests =
  [
    tc "renders header and rows" (fun () ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        let t = Table.create ~title:"demo" ~columns:[ "alpha"; "beta" ] in
        Table.add_row t [ "1"; "2" ];
        let s = Table.render t in
        Alcotest.(check bool) "has title" true (contains s "demo");
        Alcotest.(check bool) "has header" true (contains s "alpha");
        Alcotest.(check bool) "contains row" true (contains s "1"));
    tc "pads short rows" (fun () ->
        let t = Table.create ~title:"t" ~columns:[ "a"; "b"; "c" ] in
        Table.add_row t [ "x" ];
        ignore (Table.render t));
    tc "rejects long rows" (fun () ->
        let t = Table.create ~title:"t" ~columns:[ "a" ] in
        Alcotest.check_raises "too many" (Invalid_argument "Table.add_row: too many cells")
          (fun () -> Table.add_row t [ "1"; "2" ]));
    tc "cell_f formats" (fun () ->
        Alcotest.(check string) "nan" "-" (Table.cell_f Float.nan);
        Alcotest.(check string) "big" "1235" (Table.cell_f 1234.6));
    tc "to_csv quotes awkward cells" (fun () ->
        let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
        Table.add_row t [ "plain"; "has,comma" ];
        Table.add_row t [ "has\"quote"; "x" ];
        let lines = String.split_on_char '\n' (String.trim (Table.to_csv t)) in
        Alcotest.(check string) "header" "a,b" (List.hd lines);
        Alcotest.(check string) "comma quoted" "plain,\"has,comma\"" (List.nth lines 1);
        Alcotest.(check string) "quote doubled" "\"has\"\"quote\",x" (List.nth lines 2));
    tc "add_rowf splits on pipes" (fun () ->
        let t = Table.create ~title:"t" ~columns:[ "a"; "b"; "c" ] in
        Table.add_rowf t "%d|%s|%.1f" 1 "two" 3.0;
        let lines = String.split_on_char '\n' (String.trim (Table.to_csv t)) in
        Alcotest.(check string) "row" "1,two,3.0" (List.nth lines 1));
    tc "title accessor" (fun () ->
        let t = Table.create ~title:"demo" ~columns:[ "a" ] in
        Alcotest.(check string) "title" "demo" (Table.title t));
    prop "csv has one line per row plus a header"
      QCheck.(list_of_size Gen.(int_range 0 20) (pair small_nat small_nat))
      (fun rows ->
        let t = Table.create ~title:"p" ~columns:[ "x"; "y" ] in
        List.iter (fun (x, y) -> Table.add_row t [ string_of_int x; string_of_int y ]) rows;
        let lines = String.split_on_char '\n' (String.trim (Table.to_csv t)) in
        List.length lines = 1 + List.length rows);
    prop "render contains every cell" QCheck.(list_of_size Gen.(int_range 1 10) small_nat)
      (fun xs ->
        let t = Table.create ~title:"p" ~columns:[ "v" ] in
        List.iter (fun x -> Table.add_row t [ string_of_int x ]) xs;
        let s = Table.render t in
        let contains sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        List.for_all (fun x -> contains (string_of_int x)) xs);
  ]

(* {1 Vec} *)

let vec_tests =
  [
    tc "fresh vec is empty" (fun () ->
        let v : int Vec.t = Vec.create () in
        Alcotest.(check int) "len" 0 (Vec.length v);
        Alcotest.(check bool) "empty" true (Vec.is_empty v));
    tc "push then get in order" (fun () ->
        let v = Vec.create () in
        List.iter (Vec.push v) [ 10; 20; 30 ];
        Alcotest.(check int) "len" 3 (Vec.length v);
        Alcotest.(check bool) "not empty" false (Vec.is_empty v);
        Alcotest.(check int) "get 0" 10 (Vec.get v 0);
        Alcotest.(check int) "get 2" 30 (Vec.get v 2));
    tc "get out of bounds raises" (fun () ->
        let v = Vec.create () in
        Vec.push v 1;
        let raises i =
          try
            ignore (Vec.get v i);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "past end" true (raises 1);
        Alcotest.(check bool) "negative" true (raises (-1)));
    tc "clear resets length but the vec stays usable" (fun () ->
        let v = Vec.create () in
        for i = 1 to 100 do
          Vec.push v i
        done;
        Vec.clear v;
        Alcotest.(check int) "len" 0 (Vec.length v);
        Alcotest.(check bool) "empty" true (Vec.is_empty v);
        Vec.push v 7;
        Alcotest.(check int) "len" 1 (Vec.length v);
        Alcotest.(check int) "get" 7 (Vec.get v 0));
    tc "iteri sees indices in order" (fun () ->
        let v = Vec.create () in
        List.iter (Vec.push v) [ "a"; "b"; "c" ];
        let seen = ref [] in
        Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
        Alcotest.(check (list (pair int string)))
          "order"
          [ (0, "a"); (1, "b"); (2, "c") ]
          (List.rev !seen));
    tc "exists" (fun () ->
        let v = Vec.create () in
        List.iter (Vec.push v) [ 1; 3; 5 ];
        Alcotest.(check bool) "yes" true (Vec.exists (fun x -> x = 3) v);
        Alcotest.(check bool) "no" false (Vec.exists (fun x -> x = 4) v));
    tc "to_array is a fresh copy" (fun () ->
        let v = Vec.create () in
        Vec.push v 1;
        let a = Vec.to_array v in
        a.(0) <- 99;
        Alcotest.(check int) "unaffected" 1 (Vec.get v 0));
    prop "to_array agrees with the pushed list" QCheck.(list small_int) (fun xs ->
        let v = Vec.create () in
        List.iter (Vec.push v) xs;
        Array.to_list (Vec.to_array v) = xs && Vec.length v = List.length xs);
    prop "push after clear equals fresh" QCheck.(pair (list small_int) (list small_int))
      (fun (xs, ys) ->
        let v = Vec.create () in
        List.iter (Vec.push v) xs;
        Vec.clear v;
        List.iter (Vec.push v) ys;
        Array.to_list (Vec.to_array v) = ys);
    prop "iter and fold_left match the list functions" QCheck.(list small_int) (fun xs ->
        let v = Vec.create () in
        List.iter (Vec.push v) xs;
        let seen = ref [] in
        Vec.iter (fun x -> seen := x :: !seen) v;
        List.rev !seen = xs && Vec.fold_left ( + ) 0 v = List.fold_left ( + ) 0 xs);
  ]

let suites =
  [
    ("util.units", units_tests);
    ("util.rng", rng_tests);
    ("util.stats", stats_tests);
    ("util.histogram", histogram_tests);
    ("util.heap", heap_tests);
    ("util.ring_buffer", ring_tests);
    ("util.table", table_tests);
    ("util.vec", vec_tests);
  ]
