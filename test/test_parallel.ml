(* The domain pool behind the fleet controller's host-shard phase:
   index-ordered results, the size-1 degenerate case, exception
   propagation, idempotent shutdown and the shared process-wide pool.
   The fleet's own cross-width determinism property lives in
   test_fleet.ml. *)

module U = Ihnet_util

let tc name f = Alcotest.test_case name `Quick f

let pool_tests =
  [
    tc "map returns results in index order" (fun () ->
        let p = U.Pool.create 4 in
        Alcotest.(check int) "size" 4 (U.Pool.size p);
        let got = U.Pool.map p 100 (fun i -> i * i) in
        Alcotest.(check (array int)) "squares" (Array.init 100 (fun i -> i * i)) got;
        (* batch smaller than the pool *)
        let small = U.Pool.map p 2 (fun i -> 10 * i) in
        Alcotest.(check (array int)) "small batch" [| 0; 10 |] small;
        U.Pool.shutdown p);
    tc "size-1 pool degenerates to Array.init" (fun () ->
        let p = U.Pool.create 0 in
        Alcotest.(check int) "clamped to 1" 1 (U.Pool.size p);
        Alcotest.(check (array int)) "sequential" [| 0; 1; 2 |] (U.Pool.map p 3 Fun.id);
        U.Pool.shutdown p);
    tc "exceptions propagate and the pool survives them" (fun () ->
        let p = U.Pool.create 3 in
        Alcotest.(check bool) "raises" true
          (try
             ignore (U.Pool.map p 8 (fun i -> if i = 5 then failwith "boom" else i));
             false
           with Failure m -> m = "boom");
        (* a failed batch must not poison the next one *)
        Alcotest.(check (array int)) "usable after" (Array.init 8 Fun.id)
          (U.Pool.map p 8 Fun.id);
        U.Pool.shutdown p);
    tc "shutdown is idempotent; map afterwards is rejected" (fun () ->
        let p = U.Pool.create 2 in
        U.Pool.shutdown p;
        U.Pool.shutdown p;
        Alcotest.(check bool) "map rejected" true
          (try
             ignore (U.Pool.map p 4 Fun.id);
             false
           with Invalid_argument _ -> true));
    tc "get returns one shared pool and grows it" (fun () ->
        let p1 = U.Pool.get 2 in
        let p2 = U.Pool.get 3 in
        Alcotest.(check bool) "same pool" true (p1 == p2);
        Alcotest.(check bool) "grown" true (U.Pool.size p2 >= 3));
  ]

let suites = [ ("parallel.pool", pool_tests) ]
