(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Figure 3, Tables 3-7), the section-9.2
   statistics and the ablation benches, and writes the committed
   artifacts.

   Usage:  dune exec bench/main.exe [section ...] [--emit]
   Sections: figure3 table3 table4 table5 table6 table7 stats ablations
             static prefilter throughput fleet all (default: all)

   --emit writes every committed BENCH_*.json artifact into the current
   directory; given alone it skips the printed sections.  A section and
   its artifact render one set of runs, measured once per process. *)

let sections =
  [
    ("figure3", fun () -> Figure3.run ());
    ("table4", fun () -> Table4.run ());
    ("table5", fun () -> Table5.run ());
    ("table6", fun () -> Table6.run ());
    ("table7", fun () -> Table7.run ());
    ("stats", fun () -> Stats9.run ());
    ("ablations", fun () -> Ablations.run ());
    ("static", fun () -> Static_preres.run ());
    ("prefilter", fun () -> Prefilter.run ());
    ("throughput", fun () -> Throughput.run ());
    ("fleet", fun () -> Fleet_bench.run ());
  ]

(* The committed artifacts: file name and the document it holds. *)
let artifacts =
  [
    ("BENCH_trap_fastpath.json", Fastpath.document);
    ("BENCH_static_pre_resolution.json", Static_preres.document);
    ("BENCH_parallel_monitor.json", Throughput.document);
    ("BENCH_prefilter.json", Prefilter.document);
    ("BENCH_fleet.json", Fleet_bench.document);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let emit = List.mem "--emit" args in
  let args = List.filter (fun a -> a <> "--emit") args in
  let wanted =
    match args with
    | [] when emit -> []
    | [] | [ "all" ] -> List.map fst sections
    | args ->
      (* table3 is printed together with figure3. *)
      List.map (function "table3" -> "figure3" | s -> s) args
  in
  let wanted = List.sort_uniq compare wanted in
  let unknown = List.filter (fun w -> not (List.mem_assoc w sections)) wanted in
  if unknown <> [] then begin
    Printf.eprintf "unknown arguments: %s\nsections: %s; flag: --emit\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst sections));
    exit 2
  end;
  let requested = List.filter (fun (name, _) -> List.mem name wanted) sections in
  if requested <> [] then begin
    print_endline "BASTION reproduction benchmark harness";
    print_endline "======================================";
    Printf.printf "sections: %s\n\n" (String.concat ", " (List.map fst requested));
    List.iter (fun (_, f) -> f ()) requested
  end;
  if emit then
    List.iter
      (fun (file, document) ->
        Report.Json.to_file file (document ());
        Printf.printf "%s written\n" file)
      artifacts
