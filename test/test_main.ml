let () =
  Alcotest.run "tpdb"
    [
      ("interval", Test_interval.suite);
      ("lineage", Test_lineage.suite @ Test_intern.suite);
      ("relation", Test_relation.suite);
      ("engine", Test_engine.suite);
      ("storage", Test_storage.suite @ Test_codec.suite);
      ("windows", Test_windows.suite);
      ("joins", Test_joins.suite);
      ("oracle", Test_oracle.suite);
      ("alignment", Test_alignment.suite);
      ("setops", Test_setops.suite);
      ("projection", Test_projection.suite);
      ("aggregate", Test_aggregate.suite);
      ("query", Test_query.suite);
      ("physical", Test_physical.suite);
      ("analyze", Test_analyze.suite);
      ("deep", Test_deep.suite);
      ("workload", Test_workload.suite);
      ("paper_example", Test_paper_example.suite);
      ("hist", Test_hist.suite);
      ("obs", Test_obs.suite);
      ("server", Test_server.suite);
    ]
