(* Test-suite entry point: each [Test_*] module contributes suites. *)

let () =
  Alcotest.run "ihnet"
    (Test_util.suites @ Test_sketch.suites @ Test_topology.suites @ Test_engine.suites @ Test_workload.suites
   @ Test_monitor.suites @ Test_manager.suites @ Test_remediation.suites @ Test_host.suites @ Test_extensions.suites @ Test_properties.suites @ Test_fuzz_topology.suites @ Test_soak.suites @ Test_record.suites @ Test_scanport.suites @ Test_golden.suites @ Test_evidence.suites @ Test_parallel.suites @ Test_fleet.suites @ Test_daemon.suites @ Test_idle.suites)
