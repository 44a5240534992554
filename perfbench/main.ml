(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   The last line of standard output is the result object; run notes,
   the run record and the traced run's spans go to DIR (default
   .perfbench). *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let out_dir = ref ".perfbench" in
  let usage =
    "main.exe --workload {" ^ String.concat "|" Perfbench.Bench.workloads
    ^ "} --seed N --seconds S --trace {0|1} [--out DIR]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
      ("--out", Arg.Set_string out_dir, "DIR where the run record and spans go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload Perfbench.Bench.workloads))
     || !seed < 0 || !seconds < 0.0 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  match
    Perfbench.Bench.main ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~traced:(!trace = 1) ~out_dir:!out_dir
  with
  | () -> ()
  | exception e ->
    prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
    exit 1
