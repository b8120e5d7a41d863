(* Layered workload benchmark.

     bash perfbench/run.sh --workload wan_diurnal --seed 1 --seconds 15 --trace 0
     bash perfbench/run.sh --self-test BENCHMARK.json

   Prints one JSON object as the last line of standard output: [correct],
   operations [attempted] and [failed], and the metrics — end-to-end
   with [--trace 0], per layer with [--trace 1].  Runs on one worker
   domain. *)

module W = Workloads

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and self_test = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat "|" (List.map fst W.names));
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per run (> 0)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set_string self_test,
       "BENCHMARK.json check the benchmark itself at a tiny size");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> die msg);
  Exec.Pool.set_default_jobs 1;
  Scenarios.Sweep.set_retries 0;
  if !self_test <> "" then exit (Selftest.run ~benchmark:!self_test)
  else begin
    let kind =
      match List.assoc_opt !workload W.names with
      | Some k -> k
      | None -> die ("unknown --workload " ^ !workload)
    in
    if !seed < 0 then die "--seed must be >= 0";
    if not (!seconds > 0.0) then die "--seconds must be > 0";
    if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
    let r =
      Runner.run_workload kind ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~sizes:W.full
    in
    print_endline (Runner.info_line kind ~seed:!seed ~trace:(!trace = 1) r);
    print_endline (Runner.result_line r)
  end
