(* [test_main.exe crash-sweep] runs the long crash-instant sweep of
   [Test_fault.crash_sweep] alone; anything else goes to Alcotest. *)
let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "crash-sweep" then
    exit (if Test_fault.crash_sweep () then 0 else 1)
  else
  Alcotest.run "slice"
    [
      ("util", Test_util.suite);
      ("hash", Test_hash.suite);
      ("sim", Test_sim.suite);
      ("xdr", Test_xdr.suite);
      ("net", Test_net.suite);
      ("nfs", Test_nfs.suite);
      ("disk", Test_disk.suite);
      ("wal", Test_wal.suite);
      ("storage", Test_storage.suite);
      ("dir", Test_dir.suite);
      ("smallfile", Test_smallfile.suite);
      ("proxy", Test_proxy.suite);
      ("table", Test_table.suite);
      ("reconfig", Test_reconfig.suite);
      ("metacache", Test_metacache.suite);
      ("fault", Test_fault.suite);
      ("trace", Test_trace.suite);
      ("workload", Test_workload.suite);
      ("qos", Test_qos.suite);
      ("baseline", Test_baseline.suite);
      ("experiments", Test_experiments.suite);
      ("lint", Test_lint.suite);
    ]
