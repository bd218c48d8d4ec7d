(* Unit, differential and merge-determinism tests for Ihnet_util.Sketch.

   Histogram_oracle is the reference: both use the same log-linear
   bucket geometry, so with equal [sub] every percentile estimate must
   agree exactly. The exact-sample comparisons avoid naive "relative
   error" assertions (too weak at bucket boundaries like
   [Float.pred 8.0]) in favour of the geometry's own guarantee: a
   bucket midpoint is within half a bucket width of every value the
   bucket holds. *)

open Ihnet_util

let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let bits = Int64.bits_of_float

(* bit-level snapshot equality: Float equality would conflate 0. and
   -0. and choke on nan; determinism means the same BITS come out *)
let eq_snapshot (a : Sketch.snapshot) (b : Sketch.snapshot) =
  a.Sketch.s_count = b.Sketch.s_count
  && bits a.Sketch.s_mean = bits b.Sketch.s_mean
  && bits a.Sketch.s_p50 = bits b.Sketch.s_p50
  && bits a.Sketch.s_p90 = bits b.Sketch.s_p90
  && bits a.Sketch.s_p99 = bits b.Sketch.s_p99
  && bits a.Sketch.s_p999 = bits b.Sketch.s_p999
  && bits a.Sketch.s_max = bits b.Sketch.s_max

let of_list ?sub ?max_octave xs =
  let sk = Sketch.create ?sub ?max_octave () in
  List.iter (Sketch.record sk) xs;
  sk

(* nearest-rank percentile over the raw samples *)
let exact_percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let unit_tests =
  [
    tc "count, min/max exact, mean close" (fun () ->
        let sk = of_list [ 100.0; 200.0; 300.0; 400.0 ] in
        Alcotest.(check int) "count" 4 (Sketch.count sk);
        Alcotest.(check (float 1e-9)) "min" 100.0 (Sketch.min_value sk);
        Alcotest.(check (float 1e-9)) "max" 400.0 (Sketch.max_value sk);
        Alcotest.(check bool) "mean near 250" true (Float.abs (Sketch.mean sk -. 250.0) < 10.0));
    tc "non-finite and negative values are ignored" (fun () ->
        let sk = of_list [ -1.0; Float.nan; infinity; neg_infinity ] in
        Alcotest.(check int) "empty" 0 (Sketch.count sk));
    tc "empty sketch reads nan" (fun () ->
        let sk = Sketch.create () in
        Alcotest.(check bool) "mean" true (Float.is_nan (Sketch.mean sk));
        Alcotest.(check bool) "p99" true (Float.is_nan (Sketch.percentile sk 0.99));
        Alcotest.(check int) "snapshot count" 0 (Sketch.snapshot sk).Sketch.s_count);
    tc "percentile clamps into the observed range" (fun () ->
        (* 513 lands in a bucket whose midpoint is 520; the estimate
           must never exceed the largest value actually seen *)
        let sk = of_list [ 513.0 ] in
        Alcotest.(check (float 1e-9)) "p100 = max" 513.0 (Sketch.percentile sk 1.0);
        Alcotest.(check (float 1e-9)) "p1 = min" 513.0 (Sketch.percentile sk 0.01));
    tc "values beyond max_octave clamp into the top bucket" (fun () ->
        let sk = of_list ~max_octave:4 [ 1e12; 2.0 ] in
        Alcotest.(check int) "count" 2 (Sketch.count sk);
        Alcotest.(check (float 1e-9)) "max exact" 1e12 (Sketch.max_value sk);
        (* the overflow sample reports from the top octave [16,32): the
           estimate degrades to the top bucket but stays in range *)
        let p99 = Sketch.percentile sk 0.99 in
        Alcotest.(check bool) "p99 in top octave" true (p99 >= 16.0 && p99 <= 1e12));
    tc "merge requires identical geometry" (fun () ->
        let a = Sketch.create ~sub:32 () and b = Sketch.create ~sub:64 () in
        Alcotest.check_raises "sub mismatch"
          (Invalid_argument "Sketch.merge: geometry mismatch") (fun () -> Sketch.merge a b));
    tc "copy is independent" (fun () ->
        let a = of_list [ 1.0; 2.0 ] in
        let b = Sketch.copy a in
        Sketch.record b 3.0;
        Alcotest.(check int) "original" 2 (Sketch.count a);
        Alcotest.(check int) "copy" 3 (Sketch.count b));
    tc "clear resets" (fun () ->
        let sk = of_list [ 5.0 ] in
        Sketch.clear sk;
        Alcotest.(check int) "count" 0 (Sketch.count sk);
        Alcotest.(check bool) "mean nan" true (Float.is_nan (Sketch.mean sk)));
  ]

let values_gen = QCheck.(list_of_size Gen.(int_range 1 200) (float_range 1.0 1e9))

let differential_tests =
  [
    prop "sketch == histogram oracle at equal geometry" values_gen (fun xs ->
        let sk = of_list ~sub:32 xs in
        let h = Histogram_oracle.create ~sub:32 in
        List.iter (Histogram_oracle.add h) xs;
        Sketch.count sk = Histogram_oracle.count h
        && List.for_all
             (fun q ->
               bits (Sketch.percentile sk q) = bits (Histogram_oracle.percentile h q))
             [ 0.5; 0.9; 0.99; 0.999; 1.0 ]
        && bits (Sketch.max_value sk) = bits (Histogram_oracle.max_value h)
        && bits (Sketch.min_value sk) = bits (Histogram_oracle.min_value h));
    prop "percentile within half a bucket of the exact sample" values_gen (fun xs ->
        List.for_all
          (fun sub ->
            let sk = of_list ~sub xs in
            List.for_all
              (fun q ->
                let est = Sketch.percentile sk q and x = exact_percentile xs q in
                (* the q-th sample's bucket spans at most x/sub (log-linear,
                   x >= 1), so its midpoint is within x/(2 sub) of x; the
                   range clamp can only tighten the estimate *)
                Float.abs (est -. x) <= (x /. (2.0 *. float_of_int sub)) +. 1e-9)
              [ 0.5; 0.9; 0.99 ])
          [ 32; 64 ]);
    prop "sub-1.0 linear range: absolute half-bucket error"
      QCheck.(list_of_size Gen.(int_range 1 100) (float_range 0.0001 0.999))
      (fun xs ->
        let sub = 32 in
        let sk = of_list ~sub xs in
        let est = Sketch.percentile sk 0.5 and x = exact_percentile xs 0.5 in
        Float.abs (est -. x) <= (0.5 /. float_of_int sub) +. 1e-9);
  ]

let three_parts_gen =
  QCheck.(
    triple
      (list_of_size Gen.(int_range 1 60) (float_range 0.001 1e9))
      (list_of_size Gen.(int_range 1 60) (float_range 0.001 1e9))
      (list_of_size Gen.(int_range 1 60) (float_range 0.001 1e9)))

let merge_tests =
  [
    prop "merge grouping and order are bit-invisible" three_parts_gen (fun (xs, ys, zs) ->
        let whole = of_list (xs @ ys @ zs) in
        let left =
          let a = of_list xs in
          Sketch.merge a (of_list ys);
          Sketch.merge a (of_list zs);
          a
        in
        let right =
          let bc = of_list ys in
          Sketch.merge bc (of_list zs);
          let a = of_list xs in
          Sketch.merge a bc;
          a
        in
        let swapped =
          let c = of_list zs in
          Sketch.merge c (of_list ys);
          Sketch.merge c (of_list xs);
          c
        in
        let s = Sketch.snapshot whole in
        eq_snapshot s (Sketch.snapshot left)
        && eq_snapshot s (Sketch.snapshot right)
        && eq_snapshot s (Sketch.snapshot swapped));
    prop "merge == recording the concatenation" QCheck.(pair values_gen values_gen)
      (fun (xs, ys) ->
        let a = of_list xs in
        Sketch.merge a (of_list ys);
        eq_snapshot (Sketch.snapshot a) (Sketch.snapshot (of_list (xs @ ys))));
  ]

let suites =
  [
    ("sketch.units", unit_tests);
    ("sketch.differential", differential_tests);
    ("sketch.merge", merge_tests);
  ]
