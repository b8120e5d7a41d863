let () =
  Alcotest.run "traffic-analysis-repro"
    [
      ("prng.rng", Test_rng.suite);
      ("prng.sampler", Test_sampler.suite);
      ("stats.special", Test_special.suite);
      ("stats.descriptive", Test_descriptive.suite);
      ("stats.histogram", Test_histogram.suite);
      ("stats.entropy", Test_entropy.suite);
      ("stats.kde", Test_kde.suite);
      ("stats.distribution", Test_distribution.suite);
      ("stats.numerics", Test_numerics.suite);
      ("stats.stream", Test_stream.suite);
      ("stats.fourier", Test_fourier.suite);
      ("desim", Test_desim.suite);
      ("netsim", Test_netsim.suite);
      ("padding", Test_padding.suite);
      ("padding.kernel", Test_kernel.suite);
      ("adversary", Test_adversary.suite);
      ("analytical", Test_analytical.suite);
      ("extensions", Test_extensions.suite);
      ("multirate+roc", Test_multirate_roc.suite);
      ("sizes", Test_sizes.suite);
      ("faults", Test_faults.suite);
      ("fleet", Test_fleet.suite);
      ("exec", Test_exec.suite);
      ("resilience", Test_resilience.suite);
      ("obs", Test_obs.suite);
      ("obs.trace", Test_trace_schema.suite);
      ("integration", Test_integration.suite);
      ("stress", Test_stress.suite);
      ("lint", Test_lint.suite);
      ("exit-codes", Test_exit_codes.suite);
    ]
