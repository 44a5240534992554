(* One benchmark run: a workload, a seed, a measured duration, and
   either the untraced end-to-end metrics or the per-layer metrics of a
   separate traced run that follows the untraced one. *)

let workloads = [ "apps"; "apps-fs"; "fleet"; "audit" ]

(** How much work a run does.  [smoke] runs every workload at the
    models' small scale in seconds, for the benchmark's own tests. *)
type size = {
  draws : int;          (* parameter draws of the three apps *)
  reps : int;           (* timed set-up reps, after one warm-up *)
  arrivals : int;       (* per fleet load point *)
  grid_arrivals : int;  (* per point of the knee grid *)
}

let size ~smoke workload =
  if smoke then { draws = 1; reps = 1; arrivals = 2_000; grid_arrivals = 1_000 }
  else
    match workload with
    | "apps" -> { draws = 6; reps = 6; arrivals = 10_000; grid_arrivals = 5_000 }
    | "apps-fs" -> { draws = 1; reps = 9; arrivals = 20_000; grid_arrivals = 10_000 }
    | "fleet" -> { draws = 0; reps = 31; arrivals = 40_000; grid_arrivals = 20_000 }
    | _ -> { draws = 0; reps = 101; arrivals = 10_000; grid_arrivals = 5_000 }

(** The machine and runtime a result was measured on. *)
let environment ~workload ~seed ~seconds ~traced sz =
  [
    ("workload", Printf.sprintf "%S" workload);
    ("seed", string_of_int seed);
    ("seconds", Printf.sprintf "%g" seconds);
    ("trace", string_of_bool traced);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
    ("ocamlrunparam",
     Printf.sprintf "%S" (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
    ("fleet_shards", string_of_int Fleet_eval.shards);
    ("setup_reps", string_of_int (max sz.reps sz.draws));
    ("draws", string_of_int sz.draws);
    (* Host times are rescaled to a machine where the reference kernel
       takes nominal_ms; reference_ms is its median here. *)
    ("nominal_ms", Printf.sprintf "%g" (Clock.nominal_s *. 1e3));
    ("reference_ms",
     match !Clock.reference_s with
     | [] -> "null"
     | xs -> Printf.sprintf "%.4f" (Stats.median xs *. 1e3));
  ]

let json_object kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

(** Run one workload and fill [out].  Returns the span recorder of the
    traced run when there was one. *)
let measure out ~workload ~seed ~seconds ~traced ~smoke =
  Fleet_eval.check_domains ();
  let sz = size ~smoke workload in
  let spans = Spans.create () in
  let gc0 = Gc.quick_stat () in
  let untraced_done () =
    let gc1 = Gc.quick_stat () in
    Out.set out "gc.minor_mwords" ((gc1.minor_words -. gc0.minor_words) /. 1e6);
    Out.seti out "gc.major_collections" (gc1.major_collections - gc0.major_collections)
  in
  let arrivals = sz.arrivals and grid_arrivals = sz.grid_arrivals in
  (match workload with
  | "apps" | "apps-fs" ->
    let dep = if workload = "apps" then Apps_wl.shipping else Apps_wl.fs_full in
    let draws =
      if smoke then [ Apps_wl.small_draw ] else Params.draws ~seed ~n:sz.draws
    in
    let u, fleet =
      Apps_wl.run out ~dep ~draws ~reps:sz.reps ~seconds ~arrivals ~grid_arrivals
    in
    untraced_done ();
    if traced then begin
      Apps_wl.traced out spans ~dep ~draws u;
      Fleet_eval.layers out spans fleet ~arrivals
    end
  | "fleet" ->
    let fleet, untraced_setup_s =
      Fleet_wl.run out ~seed ~seconds ~reps:sz.reps ~arrivals ~grid_arrivals
    in
    untraced_done ();
    if traced then Fleet_wl.traced out spans fleet ~arrivals ~untraced_setup_s
  | "audit" ->
    let warm, pass_s, fleet =
      Audit_wl.run out ~seed ~seconds ~reps:sz.reps ~arrivals ~grid_arrivals
    in
    untraced_done ();
    if traced then begin
      Audit_wl.traced out spans ~warm ~untraced_pass_s:pass_s;
      Fleet_eval.layers out spans fleet ~arrivals
    end
  | w ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (known: %s)" w (String.concat ", " workloads)));
  if traced then Probe.finish_layers out spans;
  Out.set out "failed_frac" (float_of_int out.failed /. float_of_int (max 1 out.attempted));
  (sz, spans)

(** The command-line run: a human-readable summary, a record file and
    the spans in [out_dir], then the result line last on stdout. *)
let main ~workload ~seed ~seconds ~traced ~out_dir =
  let out = Out.create () in
  let sz, spans = measure out ~workload ~seed ~seconds ~traced ~smoke:false in
  let env = environment ~workload ~seed ~seconds ~traced sz in
  let base = Printf.sprintf "%s-seed%d-trace%d" workload seed (if traced then 1 else 0) in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let catalogue = if traced then Out.per_layer else Out.end_to_end in
  let shown =
    List.filter_map
      (fun (x : Out.metric) ->
        Option.map (fun v -> (x, v)) (Out.get out x.name))
      catalogue
  in
  Printf.printf "# %s\n" (json_object env);
  List.iter
    (fun ((x : Out.metric), v) ->
      Printf.printf "#   %-44s %16s %-7s %s\n" x.name (Out.number v) x.unit_
        (Out.clock_name x.clock))
    shown;
  Option.iter
    (fun n -> Printf.printf "#   trap percentiles over %.0f trapped syscalls\n" n)
    (Out.get out "trap.samples");
  if workload = "apps" || workload = "apps-fs" then
    print_string
      "#   model_err_pp.<app> = modelled overhead minus the paper's. The cost model\n\
       #   was calibrated against these same numbers, so it checks consistency;\n\
       #   it does not validate the model.\n";
  List.iter (fun f -> Printf.printf "# failed: %s\n" f) (List.rev out.failures);
  let record = Filename.concat out_dir (base ^ ".json") in
  let oc = open_out record in
  output_string oc
    (json_object
       (env
       @ [
           ("metrics",
            json_object
              (List.map
                 (fun ((x : Out.metric), v) ->
                   (x.name,
                    json_object
                      [ ("value", Out.number v); ("unit", Printf.sprintf "%S" x.unit_);
                        ("clock", Printf.sprintf "%S" (Out.clock_name x.clock)) ]))
                 shown));
           ("failures",
            "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") (List.rev out.failures))
            ^ "]");
         ]));
  output_char oc '\n';
  close_out oc;
  if traced then Spans.write_jsonl spans (Filename.concat out_dir (base ^ ".spans.jsonl"));
  print_endline (Out.result_json out ~traced)
