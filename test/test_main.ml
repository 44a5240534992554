let () =
  Alcotest.run "bastion-repro"
    (Test_sil.suites @ Test_machine.suites @ Test_kernel.suites @ Test_analysis.suites @ Test_monitor.suites @ Test_defenses.suites @ Test_attacks.suites @ Test_props.suites @ Test_integration.suites @ Test_fuzz.suites @ Test_misc.suites @ Test_metadata_io.suites @ Test_fastpath.suites @ Test_obs.suites @ Test_semantics.suites @ Test_coverage.suites @ Test_smoke.suites @ Test_workloads.suites @ Test_lint.suites @ Test_static_v2.suites @ Test_mt.suites @ Test_replay.suites @ Test_prefilter.suites @ Test_fleet.suites @ Test_compile.suites)
