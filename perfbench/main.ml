(* perfbench: the repository's benchmark of `fcv serve`.

     python3 perfbench/run.py --workload audit|ingest|mixed --seed N \
       --seconds S --trace 0|1

   run.py builds the daemon and this client, then runs
   main.exe --fcv _build/default/bin/fcv.exe <the same arguments>.
   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
   end-to-end metrics, --trace 1 the per-layer ones.  NOTES.md explains
   the workloads, the metrics and how steady they are. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let fcv = ref "" and work = ref ".perfbench_work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "audit | ingest | mixed");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--fcv", Arg.Set_string fcv, "PATH  the fcv binary");
      ("--work", Arg.Set_string work, "DIR  scratch directory (default .perfbench_work)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --fcv PATH --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Perfbench.Workload.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " Perfbench.Workload.names);
    exit 2
  end;
  if !fcv = "" || not (Sys.file_exists !fcv) then begin
    prerr_endline "perfbench: --fcv must name the fcv binary";
    exit 2
  end;
  exit (Perfbench.Report.main ~fcv:!fcv ~work:!work ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
