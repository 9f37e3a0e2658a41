let () =
  Alcotest.run "powerlim"
    (Test_lp.suite @ Test_solver_pins.suite @ Test_machine.suite @ Test_pareto.suite @ Test_dag.suite
   @ Test_simulate.suite @ Test_workloads.suite @ Test_core.suite
   @ Test_objective.suite @ Test_runtime.suite @ Test_trace_io.suite @ Test_experiments.suite
   @ Test_pqueue.suite @ Test_parallel.suite @ Test_cache.suite
   @ Test_obs.suite @ Test_store.suite @ Test_serve.suite)
