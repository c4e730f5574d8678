(* Aggregated alcotest entry point for the whole repository. *)
let () =
  Alcotest.run "hippocrates"
    [
      ("pmir", Test_pmir.suite);
      ("pmcheck", Test_pmcheck.suite);
      ("pstate-props", Test_pstate_props.suite);
      ("exec", Test_exec.suite);
      ("runtime", Test_runtime.suite);
      ("alias", Test_alias.suite);
      ("fixes", Test_fixes.suite);
      ("driver", Test_driver.suite);
      ("pipeline", Test_pipeline.suite);
      ("engine", Test_engine.suite);
      ("optimize", Test_optimize.suite);
      ("parallel", Test_parallel.suite);
      ("crashsim", Test_crashsim.suite);
      ("pmir-gen", Test_pmir_gen.suite);
      ("staticcheck", Test_staticcheck.suite);
      ("fuzz", Test_fuzz.suite);
      ("corpus", Test_corpus.suite);
      ("apps", Test_apps.suite);
      ("ycsb", Test_ycsb.suite);
      ("perfmodel", Test_perfmodel.suite);
      ("serve", Test_serve.suite);
      ("bugstudy", Test_bugstudy.suite);
      ("sim", Test_sim.suite);
      ("e2e", Test_e2e.suite);
    ]
