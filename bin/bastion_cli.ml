(* The bastion command-line interface.

     bastion analyze --app nginx [--fs] [--dump-ir]
         run the BASTION compiler pass over an application model and
         print its call-type classification and instrumentation stats

     bastion run --app nginx --defense full [--trace FILE] [--metrics]
         run a workload under a defense configuration and report the
         paper's metric plus overhead vs the unprotected baseline;
         --trace/--audit/--metrics arm the flight recorder (--audit
         writes a replayable versioned trace); the tiered syscall-flow
         pre-filter is on by default (--no-prefilter disables it)

     bastion replay TRACE... [--strict] [--json REPORT]
         re-verify recorded trap streams against the real monitor and
         exit non-zero on any divergence

     bastion replay TRACE... --against current|FILE [--diff REPORT]
         differential replay: judge the recorded streams through a
         monitor built from changed metadata (the in-tree compile
         pass, or an edited metadata file) and report what moved —
         verdict flips, context moves, tier movements, cycle deltas;
         exits non-zero on any verdict flip or context move

     bastion lint --app nginx [--fs] [--pre-resolve]
         run the metadata-soundness linter over an application model;
         exits non-zero if any error-severity diagnostic fires
         (warnings are printed but never fail the run)

     bastion lint --metadata FILE
         validate a metadata file's v3 section table

     bastion trace-summary FILE
         summarise a Chrome-trace file written by `bastion run --trace`

     bastion fleet [--tracees K] [--shards N] [--points P] [--json FILE]
         sweep offered load over a heterogeneous fleet through the
         sharded monitor pool and report queue-wait / end-to-end
         latency tails plus the saturation knee; exits non-zero if
         any point diverged from the serial reference

     bastion fleet-summary FILE
         summarise a fleet sweep JSON (BENCH_fleet.json) or a stats
         JSONL stream written by `--stats`

     bastion attack --id coop-chrome [--config ai]
     bastion attack --all
         run attacks from the Table 6 catalog under chosen contexts

     bastion list
         list applications, defenses and attacks *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log every monitor trap decision.")

(* --- shared argument parsers ----------------------------------------- *)

(* Names resolve through the replay engine's registries, the tables a
   trace header's keys are read back with. *)
module Engine = Bastion_replay.Engine

let app_arg =
  Arg.(
    required
    & opt (some (enum (List.map (fun a -> (a, a)) Engine.apps))) None
    & info [ "app" ] ~docv:"APP" ~doc:"Application model (nginx, sqlite, vsftpd).")

(* The default-scale program of an [app_arg] name. *)
let prog_of_name name =
  Lazy.force (Result.get_ok (Engine.app_of ~name ~scale:"default")).prog

(* [fs-off] only keeps the registry total over the drivers' defenses;
   the command line does not offer it. *)
let defenses =
  List.filter (fun (key, _) -> not (String.equal key "fs-off")) Engine.defenses

(* The --scheduler parser, shared by `run` and `fleet`: a placement
   policy, wrapped by [policy], or one of [extra]'s named values. *)
let scheduler_conv ~policy ~extra =
  let module Pool = Bastion_mt.Monitor_pool in
  let named =
    List.map (fun p -> (Pool.policy_name p, policy p)) Pool.all_policies @ extra
  in
  let parse s =
    match (Pool.policy_of_string s, List.assoc_opt s extra) with
    | Some p, _ -> Ok (policy p)
    | None, Some v -> Ok v
    | None, None ->
      Error
        (`Msg
          (Printf.sprintf "unknown scheduler %S (%s)" s
             (String.concat "|" (List.map fst named))))
  in
  let print ppf v =
    Format.pp_print_string ppf (fst (List.find (fun (_, v') -> v' = v) named))
  in
  Arg.conv (parse, print)

(* The --stats / --stats-interval pairing, shared by `run` and `fleet`. *)
let check_stats stats stats_interval =
  match (stats, stats_interval) with
  | Some _, None -> `Error (false, "--stats FILE needs --stats-interval CYCLES")
  | _, Some iv when iv <= 0 ->
    `Error (false, "--stats-interval must be a positive cycle count")
  | _ -> `Ok ()

(* --- analyze ---------------------------------------------------------- *)

let analyze verbose app fs dump_ir emit_metadata =
  setup_logs verbose;
  let prog = prog_of_name app in
  if dump_ir then print_endline (Sil.Pp.prog_to_string prog);
  let protected_prog = Bastion.Api.protect ~protect_filesystem:fs prog in
  (match emit_metadata with
  | Some file ->
    Bastion.Metadata_io.save protected_prog ~file;
    Printf.printf "metadata written to %s\n" file
  | None -> ());
  let s = Bastion.Api.stats protected_prog in
  Printf.printf "BASTION compiler pass over %s%s\n" app
    (if fs then " (+ filesystem syscalls)" else "");
  Printf.printf "  application callsites     : %d (%d indirect)\n" s.total_callsites
    s.indirect_callsites;
  Printf.printf "  sensitive callsites       : %d\n" s.sensitive_callsites;
  Printf.printf "  sensitive called indirect : %d\n" s.sensitive_indirect;
  Printf.printf "  ctx_write_mem sites       : %d\n" s.write_mem_sites;
  Printf.printf "  ctx_bind_mem sites        : %d\n" s.bind_mem_sites;
  Printf.printf "  ctx_bind_const sites      : %d\n" s.bind_const_sites;
  print_endline "\nCall-type classification of syscalls used by the program:";
  List.iter
    (fun (name, nr, _) ->
      let ct = Bastion.Calltype.call_type protected_prog.calltype nr in
      if ct.directly || ct.indirectly then
        Printf.printf "  %-18s %s%s\n" name
          (if ct.directly then "direct " else "")
          (if ct.indirectly then "indirect" else ""))
    Kernel.Syscalls.table;
  let diags = Bastion_analysis.Lint.check protected_prog in
  let errs = Bastion_analysis.Lint.errors diags in
  let enriched = Bastion_analysis.Preresolve.enrich protected_prog in
  let bk = Bastion_analysis.Preresolve.breakdown enriched in
  print_endline "\nStatic soundness:";
  Printf.printf "  linter errors / warnings  : %d / %d\n" (List.length errs)
    (List.length diags - List.length errs);
  Printf.printf
    "  pre-resolvable AI slots   : %d (plain %d, per-context %d, dead-site %d)\n"
    (Bastion_analysis.Preresolve.resolved_slots enriched)
    bk.Bastion_analysis.Preresolve.bk_plain bk.Bastion_analysis.Preresolve.bk_ctx
    bk.Bastion_analysis.Preresolve.bk_dead;
  Printf.printf "  remaining slots by taint  : %d tainted, %d untainted\n"
    bk.Bastion_analysis.Preresolve.bk_tainted
    bk.Bastion_analysis.Preresolve.bk_untainted;
  `Ok ()

let analyze_cmd =
  let fs =
    Arg.(value & flag & info [ "fs" ] ~doc:"Extend the sensitive set with filesystem syscalls (§11.2).")
  in
  let dump = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the program IR first.") in
  let emit =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-metadata" ] ~docv:"FILE"
          ~doc:"Write the compiler-generated context metadata to FILE (the \
                file the monitor would load at startup).")
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Run the BASTION compiler pass over an application model")
    Term.(ret (const analyze $ verbose_arg $ app_arg $ fs $ dump $ emit))

(* --- lint ------------------------------------------------------------- *)

let print_diags diags =
  List.iter
    (fun (d : Bastion_analysis.Lint.diag) ->
      Format.printf "%s: %a@."
        (Bastion_analysis.Lint.severity_name d.d_sev)
        Bastion_analysis.Lint.pp_diag d)
    diags

let lint_metadata file =
  match
    let ic = open_in file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text
  with
  | exception Sys_error e -> `Error (false, e)
  | text -> (
    let diags = Bastion_analysis.Lint.check_metadata_text text in
    print_diags diags;
    match Bastion_analysis.Lint.errors diags with
    | [] ->
      Printf.printf "%s: section table valid, 0 error(s)\n" file;
      `Ok ()
    | errs ->
      `Error
        ( false,
          Printf.sprintf "%d section-table error%s in %s" (List.length errs)
            (if List.length errs = 1 then "" else "s")
            file ))

let lint verbose app fs pre_resolve metadata =
  setup_logs verbose;
  match metadata with
  | Some file -> lint_metadata file
  | None ->
  let prog = prog_of_name app in
  let protected_prog = Bastion.Api.protect ~protect_filesystem:fs prog in
  let protected_prog =
    if pre_resolve then Bastion_analysis.Preresolve.enrich protected_prog
    else protected_prog
  in
  let diags = Bastion_analysis.Lint.check protected_prog in
  print_diags diags;
  match Bastion_analysis.Lint.errors diags with
  | [] ->
    Printf.printf "%s%s: metadata sound, %d error(s), %d warning(s)\n" app
      (if fs then " (+ filesystem syscalls)" else "")
      0 (List.length diags);
    `Ok ()
  | errs ->
    `Error
      ( false,
        Printf.sprintf "%d metadata-soundness error%s for %s" (List.length errs)
          (if List.length errs = 1 then "" else "s")
          app )

let lint_cmd =
  let fs =
    Arg.(
      value & flag
      & info [ "fs" ]
          ~doc:"Lint the filesystem-extended protection (§11.2).")
  in
  let pre_resolve =
    Arg.(
      value & flag
      & info [ "pre-resolve" ]
          ~doc:"Run constant-argument pre-resolution first and lint the \
                stored results too.")
  in
  let metadata =
    Arg.(
      value
      & opt (some string) None
      & info [ "metadata" ] ~docv:"FILE"
          ~doc:"Instead of linting an application model, validate FILE's v3 \
                section table: required/optional flags on known sections, no \
                duplicates, no missing required section.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Cross-check the emitted metadata against the program (exit \
             non-zero on any error-severity diagnostic; warnings only print)")
    Term.(ret (const lint $ verbose_arg $ app_arg $ fs $ pre_resolve $ metadata))

(* --- run -------------------------------------------------------------- *)

(* Sharded mode: N tracees over a monitor pool of worker domains.  Each
   tracee is a full session run on its owning shard; the report is the
   modelled makespan (heaviest shard) against the serial cycle sum.
   The per-shard backpressure summary reads the registry's sampled
   probes (the same names `--metrics` prints), not pool-private
   counters; [--trace] merges per-shard recorders into one Perfetto
   document with a lane per shard, and [--stats-interval] derives a
   time-series JSONL from the recorded trap stream. *)
let run_workload_sharded a defense ~trap_cache ~pre_resolve ~prefilter
    ~scheduler ~shards ~tracees ~trace ~stats ~stats_interval metrics =
  let shard_recorders =
    if trace <> None || stats_interval <> None then
      Some (Array.init shards (fun _ -> Obs.Recorder.create ~tracing:true ()))
    else None
  in
  let m =
    Workloads.Drivers.run_multi ~trap_cache ~pre_resolve ?prefilter
      ~scheduler ?shard_recorders ~shards ~tracees a defense
  in
  let t0 = m.mm_tracees.(0) in
  Printf.printf "%s under %s: %d tracees over %d shard%s (%s scheduler)\n"
    a.Workloads.Drivers.app_name
    (Workloads.Drivers.defense_name defense) tracees shards
    (if shards = 1 then "" else "s")
    (Bastion_mt.Monitor_pool.policy_name scheduler);
  Printf.printf "  per tracee       : %.2f %s, %d traps, %d cycles\n" t0.m_metric
    a.Workloads.Drivers.metric_name t0.m_traps t0.m_cycles;
  Printf.printf "  total traps      : %d\n" (Workloads.Drivers.sum_traps m);
  Printf.printf "  serial cycles    : %d\n" m.mm_serial_cycles;
  Printf.printf "  makespan cycles  : %d (modelled speedup %.2fx)\n" m.mm_makespan_cycles
    (float_of_int m.mm_serial_cycles /. float_of_int m.mm_makespan_cycles);
  Printf.printf "  host wall clock  : %.3f s\n" m.mm_wall_seconds;
  let reg = Obs.Metrics.create () in
  Bastion_mt.Monitor_pool.mirror_stats m.mm_pool reg;
  let probes = Obs.Metrics.counter_values reg in
  let probe name = Option.value ~default:0.0 (List.assoc_opt name probes) in
  for shard = 0 to shards - 1 do
    let p suffix = probe (Printf.sprintf "mt.shard%d.%s" shard suffix) in
    Printf.printf
      "  shard %d          : %.0f tracees, queue max depth %.0f / %.0f, %.0f \
       blocked pushes, mean batch %.1f\n"
      shard (p "tracees") (p "queue.max_depth") (p "queue.capacity")
      (p "queue.blocked_pushes") (p "queue.mean_batch")
  done;
  Printf.printf
    "  balance          : util spread %.2f (max/mean shard items), %.0f \
     steals, %.0f migrations\n"
    (probe "mt.util_spread") (probe "mt.steals") (probe "mt.migrations");
  if metrics then print_string (Obs.Metrics.summary_table reg);
  (match (shard_recorders, trace) with
  | Some rs, Some path ->
    Obs.Chrome.write_pool (Array.to_list rs) path;
    Printf.printf "  trace     : %s (%d events over %d shard lanes)\n" path
      (Array.fold_left
         (fun acc r -> acc + List.length (Obs.Recorder.items r))
         0 rs)
      shards
  | _ -> ());
  (match (shard_recorders, stats_interval) with
  | Some rs, Some interval ->
    let events =
      List.concat_map Obs.Recorder.trap_events (Array.to_list rs)
    in
    let rows = Obs.Timeseries.of_events ~interval events in
    (match stats with
    | Some path ->
      Obs.Timeseries.write_jsonl
        ~meta:
          [
            ("app", Report.Json.Str a.Workloads.Drivers.app_name);
            ("shards", Report.Json.Num (float_of_int shards));
            ("interval_cycles", Report.Json.Num (float_of_int interval));
          ]
        rows path;
      Printf.printf "  stats     : %s (%d rows)\n" path (List.length rows)
    | None -> print_string (Obs.Timeseries.render rows))
  | _ -> ());
  `Ok ()

let run_workload verbose app scale defense no_trap_cache pre_resolve
    no_prefilter trace metrics audit scheduler shards tracees stats
    stats_interval =
  setup_logs verbose;
  let trap_cache = not no_trap_cache in
  (* The tiered pre-filter is the deployment default: cheap seccomp-stage
     resolution in front of the unchanged monitor.  [--no-prefilter]
     recovers the pure trap-everything configuration. *)
  let prefilter =
    if no_prefilter then None else Some Kernel.Seccomp.Flow_tiered
  in
  match Engine.app_of ~name:app ~scale with
  | Error msg -> `Error (false, msg)
  | Ok a ->
  let sharded = shards > 1 || tracees > 1 in
  if shards < 1 then `Error (false, "--shards must be >= 1")
  else if tracees < 0 then
    `Error (false, "--tracees must be >= 0 (0 means twice the shard count)")
  else if sharded && audit <> None then
    (* The audit log records one session; a sharded run has several. *)
    `Error (false, "--audit records a single tracee: drop --shards and --tracees")
  else match check_stats stats stats_interval with
  | `Error _ as e -> e
  | `Ok () ->
  if
    scheduler <> Bastion_mt.Monitor_pool.Static
    && (trace <> None || stats_interval <> None)
  then
    (* Shard recorders stamp lanes assuming the static pin; a stealing
       pool would race them, so the driver rejects the combination. *)
    `Error
      (false, "--trace/--stats-interval require the static --scheduler")
  else if sharded then
    let tracees = if tracees = 0 then 2 * shards else tracees in
    run_workload_sharded a defense ~trap_cache ~pre_resolve ~prefilter
      ~scheduler ~shards ~tracees ~trace ~stats ~stats_interval metrics
  else begin
  (* The recorder exists only when some sink wants it: the trace or
     audit file needs the ring, --metrics the histograms, -v the live
     callback, --stats-interval the event stream.  Otherwise runs stay
     on the counter-bump path. *)
  let tracing = trace <> None || audit <> None || stats_interval <> None in
  let recorder =
    if tracing || metrics || verbose then
      (* An audit sink must hold every trap of the run: a dropped-oldest
         ring would break the trace's seq contiguity and the replay
         reader would reject the file. *)
      let ring_capacity =
        if audit <> None then Engine.recording_ring_capacity
        else Obs.Recorder.default_ring_capacity
      in
      Some (Obs.Recorder.create ~tracing ~metrics ~ring_capacity ())
    else None
  in
  (match recorder with
  | Some r when verbose ->
    Obs.Recorder.set_on_event r
      (Some
         (fun ev ->
           if Obs.Event.denied ev then Logs.warn (fun m -> m "%s" (Obs.Event.to_string ev))
           else Logs.debug (fun m -> m "%s" (Obs.Event.to_string ev))))
  | _ -> ());
  let baseline = Workloads.Drivers.run a Workloads.Drivers.Vanilla in
  let m =
    Workloads.Drivers.run ~trap_cache ~pre_resolve ?prefilter ?recorder a defense
  in
  Printf.printf "%s under %s%s%s%s\n" a.app_name
    (Workloads.Drivers.defense_name defense)
    (if no_trap_cache then " (trap verdict cache off)" else "")
    (if pre_resolve then " (AI slots statically pre-resolved)" else "")
    (if no_prefilter then " (syscall-flow pre-filter off)" else "");
  Printf.printf "  metric    : %.2f %s (baseline %.2f)\n" m.m_metric a.metric_name
    baseline.m_metric;
  Printf.printf "  overhead  : %.2f%%\n"
    (Workloads.Drivers.overhead_pct ~baseline m ~higher_is_better:a.higher_is_better);
  Printf.printf "  traps     : %d, syscalls: %d, cycles: %d\n" m.m_traps m.m_syscalls
    m.m_cycles;
  let tracer = m.m_process.Kernel.Process.tracer in
  Printf.printf "  ptrace    : %d calls, %d words fetched\n"
    tracer.Kernel.Ptrace.calls_made tracer.Kernel.Ptrace.words_read;
  (match m.m_monitor with
  | None -> ()
  | Some monitor ->
    let hits, misses, rate = Bastion.Monitor.cache_stats monitor in
    Printf.printf "  trap cache: %d hits, %d misses (%.1f%% hit rate)\n" hits misses
      (rate *. 100.0);
    if pre_resolve then begin
      let ai_tainted, ai_untainted = Bastion.Monitor.ai_rank_stats monitor in
      Printf.printf
        "  AI slots verified statically: %d plain, %d per-context\n"
        (Bastion.Monitor.pre_resolved_hits monitor)
        (Bastion.Monitor.ctx_resolved_hits monitor);
      Printf.printf
        "  ranked slot checks: %d untainted (cheap path), %d tainted (full \
         path)\n"
        ai_untainted ai_tainted
    end;
    (* Per-tier resolution: how much of the trap stream the cheap
       seccomp-stage tier absorbed before the full monitor saw it. *)
    match Bastion.Monitor.prefilter monitor with
    | None -> ()
    | Some _ ->
      let resolved, fallthroughs, kills = Bastion.Monitor.prefilter_stats monitor in
      Printf.printf
        "  prefilter : %d resolved at seccomp tier, %d fell through to the \
         full monitor%s\n"
        resolved fallthroughs
        (if kills > 0 then Printf.sprintf ", %d killed" kills else ""));
  match recorder with
  | None -> `Ok ()
  | Some r ->
    (match trace with
    | Some path ->
      Obs.Chrome.write r path;
      Printf.printf "  trace     : %s (%d events%s)\n" path
        (List.length (Obs.Recorder.items r))
        (let d = Obs.Recorder.events_dropped r in
         if d > 0 then Printf.sprintf ", %d dropped" d else "")
    | None -> ());
    let audited =
      match audit with
      | Some path -> (
        match
          Engine.write_run ~recorder:r ~path ~app ~scale ~trap_cache ~pre_resolve
            ~prefilter m
        with
        | header ->
          Printf.printf "  audit log : %s (%d traps)\n" path
            header.Bastion_replay.Trace.h_traps;
          `Ok ()
        | exception Failure msg -> `Error (false, msg))
      | None -> `Ok ()
    in
    (match stats_interval with
    | Some interval ->
      let rows =
        Obs.Timeseries.of_events ~interval (Obs.Recorder.trap_events r)
      in
      (match stats with
      | Some path ->
        Obs.Timeseries.write_jsonl
          ~meta:
            [
              ("app", Report.Json.Str app);
              ("defense", Report.Json.Str (Workloads.Drivers.defense_name defense));
              ("interval_cycles", Report.Json.Num (float_of_int interval));
            ]
          rows path;
        Printf.printf "  stats     : %s (%d rows)\n" path (List.length rows)
      | None -> print_string (Obs.Timeseries.render rows))
    | None -> ());
    if metrics then print_string (Obs.Recorder.summary_table r);
    audited
  end

let scale_arg =
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) Engine.scales)) "default"
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Workload scale: default (paper-shaped) or small (a few hundred \
              traps; the golden-trace corpus scale).")

let run_cmd =
  let defense =
    Arg.(
      value
      & opt (enum defenses) Workloads.Drivers.Bastion_full
      & info [ "defense" ] ~docv:"DEFENSE"
          ~doc:"One of: vanilla, cfi, cet, ct, ct-cf, full, fs-hook, fs-fetch, fs-full.")
  in
  let no_trap_cache =
    Arg.(
      value & flag
      & info [ "no-trap-cache" ]
          ~doc:"Disable the monitor's CT+CF verdict cache (the trap fast \
                path); every trap then re-runs the full context checks.")
  in
  let pre_resolve =
    Arg.(
      value & flag
      & info [ "pre-resolve" ]
          ~doc:"Pre-resolve provably-constant syscall arguments statically; \
                the monitor verifies those AI slots against the stored \
                constant without probing the shadow.")
  in
  let no_prefilter =
    Arg.(
      value & flag
      & info [ "no-prefilter" ]
          ~doc:"Disable the tiered syscall-flow pre-filter (on by default \
                for monitored defenses): every sensitive syscall then traps \
                to the full monitor instead of resolving expected flows at \
                seccomp cost.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record every trap and write a Chrome-trace JSON to FILE \
                (open in Perfetto or chrome://tracing).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Collect latency histograms and print the metrics registry \
                after the run.")
  in
  let audit =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE"
          ~doc:"Write a JSONL audit log (one structured event per line) to FILE.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Shard the monitor over N worker domains; each tracee runs \
                wholly on its owning shard (same tracee, same shard).")
  in
  let tracees =
    Arg.(
      value & opt int 0
      & info [ "tracees" ] ~docv:"K"
          ~doc:"Number of concurrent tracees in sharded mode (default: 2x \
                the shard count).")
  in
  let stats =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:"Write the --stats-interval time series as JSONL to FILE \
                (readable offline with `bastion fleet-summary FILE`).")
  in
  let stats_interval =
    Arg.(
      value
      & opt (some int) None
      & info [ "stats-interval" ] ~docv:"CYCLES"
          ~doc:"Sample a per-shard time-series row every CYCLES modelled \
                cycles (trap count, denials, monitor cycles); printed as a \
                table, or written as JSONL with --stats FILE.")
  in
  let scheduler =
    Arg.(
      value
      & opt (scheduler_conv ~policy:Fun.id ~extra:[]) Bastion_mt.Monitor_pool.Static
      & info [ "scheduler" ] ~docv:"POLICY"
          ~doc:"Placement policy for sharded mode: $(b,static) (pin tracees \
                to their home shard) or $(b,steal) (idle shards steal \
                whole-tracee claims).  Verdicts and modelled cycles are \
                identical under both policies.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a workload under a defense configuration")
    Term.(
      ret
        (const run_workload $ verbose_arg $ app_arg $ scale_arg $ defense
       $ no_trap_cache $ pre_resolve $ no_prefilter $ trace $ metrics $ audit
       $ scheduler $ shards $ tracees $ stats $ stats_interval))

(* --- trace-summary ----------------------------------------------------- *)

let trace_summary file =
  match Report.Json.of_file file with
  | exception Sys_error e -> `Error (false, e)
  | exception Report.Json.Parse_error e ->
    `Error (false, Printf.sprintf "%s: %s" file e)
  | doc ->
    print_string (Obs.Chrome.render_summary (Obs.Chrome.summarize doc));
    `Ok ()

let trace_summary_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome-trace JSON written by `bastion run --trace`.")
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Summarise a Chrome-trace file written by `bastion run --trace`")
    Term.(ret (const trace_summary $ file))

(* --- fleet ------------------------------------------------------------ *)

module Fleet = Workloads.Fleet

let run_fleet verbose tracees shards arrivals points policies json stats
    stats_interval =
  setup_logs verbose;
  if tracees < 1 then `Error (false, "--tracees must be >= 1")
  else if shards < 1 then `Error (false, "--shards must be >= 1")
  else if arrivals < 1 then `Error (false, "--arrivals must be >= 1")
  else if points < 2 then `Error (false, "--points must be >= 2")
  else match check_stats stats stats_interval with
  | `Error _ as e -> e
  | `Ok () ->
    (* --scheduler all sweeps every policy over one fleet, a single
       policy sweeps just that one; either way the JSON is a schema-v2
       document (`policies` array). *)
    let a =
      Fleet.ablation ?stats_interval ~policies ~tracees ~shards ~arrivals ~points ()
    in
    (match a.Fleet.ab_sweeps with
    | [ s ] -> print_string (Fleet.render_sweep s)
    | _ -> print_string (Fleet.render_ablation a));
    (match json with
    | Some path ->
      Report.Json.to_file path (Fleet.ablation_json a);
      Printf.printf "json  : %s\n" path
    | None -> ());
    (match stats_interval with
    | Some interval -> (
      (* The time series of the last sweep's highest-load point: the
         one whose queue-depth excursions the sweep table can't show. *)
      let s = List.nth a.Fleet.ab_sweeps (List.length a.Fleet.ab_sweeps - 1) in
      let last = List.nth s.Fleet.sw_points (List.length s.Fleet.sw_points - 1) in
      let rows = last.Fleet.pt_result.Fleet.rr_stats in
      match stats with
      | Some path ->
        Obs.Timeseries.write_jsonl
          ~meta:
            [
              ("tracees", Report.Json.Num (float_of_int tracees));
              ("shards", Report.Json.Num (float_of_int shards));
              ("load_fraction", Report.Json.Num last.Fleet.pt_fraction);
              ("interval_cycles", Report.Json.Num (float_of_int interval));
            ]
          rows path;
        Printf.printf "stats : %s (%d rows, highest-load point)\n" path
          (List.length rows)
      | None -> print_string (Obs.Timeseries.render rows))
    | None -> ());
    (* A point the serial reference disagrees with is a wrong result,
       not a warning: fail once everything is printed and written. *)
    let points = List.concat_map (fun s -> s.Fleet.sw_points) a.Fleet.ab_sweeps in
    let bad =
      List.filter (fun p -> not p.Fleet.pt_result.Fleet.rr_matches_serial) points
    in
    if bad = [] then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "%d of %d point(s) diverged from the serial reference"
            (List.length bad) (List.length points) )

let fleet_cmd =
  let tracees =
    Arg.(
      value & opt int 64
      & info [ "tracees" ] ~docv:"K"
          ~doc:"Fleet size: K heterogeneous tracees (mixed nginx/sqlite/\
                vsftpd, skewed trap rates).")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N" ~doc:"Monitor pool worker domains.")
  in
  let arrivals =
    Arg.(
      value & opt int 6000
      & info [ "arrivals" ] ~docv:"A"
          ~doc:"Traps offered per load point (the open-loop arrival count).")
  in
  let points =
    Arg.(
      value & opt int 6
      & info [ "points" ] ~docv:"P"
          ~doc:"Number of offered-load points swept from 0.2x to 1.15x of \
                the modelled capacity.")
  in
  let scheduler =
    let module Pool = Bastion_mt.Monitor_pool in
    Arg.(
      value
      & opt
          (scheduler_conv ~policy:(fun p -> [ p ]) ~extra:[ ("all", Pool.all_policies) ])
          [ Pool.Static ]
      & info [ "scheduler" ] ~docv:"POLICY"
          ~doc:"Placement policy for the sweep: $(b,static), $(b,steal), or \
                $(b,all) for the full ablation (both policies over the same \
                fleet and capacity).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the sweep as a BENCH_fleet-style JSON document \
                (schema bastion-fleet/2).")
  in
  let stats =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:"Write the highest-load point's time series as JSONL to FILE.")
  in
  let stats_interval =
    Arg.(
      value
      & opt (some int) None
      & info [ "stats-interval" ] ~docv:"CYCLES"
          ~doc:"Sample per-shard time-series rows every CYCLES modelled \
                cycles during each load point.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Sweep offered load over a heterogeneous tracee fleet and report \
             tail latency vs load with the saturation knee (exit non-zero if \
             any point diverged from the serial reference)")
    Term.(
      ret
        (const run_fleet $ verbose_arg $ tracees $ shards $ arrivals $ points
       $ scheduler $ json $ stats $ stats_interval))

(* --- fleet-summary ----------------------------------------------------- *)

(* Offline reader for the telemetry artifacts: the fleet sweep JSON
   (schema bastion-fleet/2) and the stats JSONL stream
   (bastion-stats/1), told apart by the schema tag. *)

let fleet_num ?(default = 0.0) name j =
  match Report.Json.member name j with
  | Some (Report.Json.Num f) -> f
  | _ -> default

let render_fleet_results results =
  let open Report.Json in
  let num = fleet_num in
  let cell p name j =
    Printf.sprintf "%.0f" (num p (Option.value ~default:Null (member name j)))
  in
  print_string
    (Report.Table.render
       ~align:Report.Table.[ R; R; R; R; R; R; R; R; R; R; L ]
       ~header:
         [ "load"; "traps/sec"; "util"; "spread"; "steals";
           "wait p50"; "wait p99"; "wait p99.9";
           "e2e p99"; "e2e p99.9"; "serial" ]
       (List.map
          (fun r ->
            [
              Printf.sprintf "%.2f" (num "load_fraction" r);
              Printf.sprintf "%.0f" (num "offered_traps_per_sec" r);
              Printf.sprintf "%.2f" (num "util_max" r);
              (match member "util_spread" r with
              | Some (Num f) -> Printf.sprintf "%.2f" f
              | _ -> "-");
              (match member "steals" r with
              | Some (Num f) -> Printf.sprintf "%.0f" f
              | _ -> "-");
              cell "p50" "queue_wait" r;
              cell "p99" "queue_wait" r;
              cell "p999" "queue_wait" r;
              cell "p99" "e2e" r;
              cell "p999" "e2e" r;
              (match member "matches_serial" r with
              | Some (Bool true) -> "ok"
              | Some (Bool false) -> "DIVERGED"
              | _ -> "-");
            ])
          results))

let render_fleet_knee knee =
  let open Report.Json in
  let num = fleet_num in
  let str name j = match member name j with Some (Str s) -> Some s | _ -> None in
  match knee with
  | Some (Obj _ as k) ->
    Printf.printf
      "\nsaturation knee: point %.0f (%.2fx capacity, %.0f traps/sec) — %s\n"
      (num "index" k) (num "load_fraction" k) (num "offered_traps_per_sec" k)
      (Option.value ~default:"-" (str "reason" k))
  | _ -> print_string "\nsaturation knee: not reached in this sweep\n"

let render_fleet_doc doc =
  let open Report.Json in
  let num = fleet_num in
  let config = Option.value ~default:Null (member "config" doc) in
  Printf.printf
    "fleet ablation: %.0f tracees, %.0f shards, %.0f arrivals/point\n\
     capacity (mean shard util = 1): %.0f traps/sec (static bottleneck: %.0f)\n"
    (num "tracees" config) (num "shards" config) (num "arrivals" config)
    (num "capacity_traps_per_sec" doc)
    (num "capacity_bottleneck_traps_per_sec" doc);
  let policies =
    match member "policies" doc with Some (List l) -> l | _ -> []
  in
  List.iter
    (fun p ->
      let name =
        match member "policy" p with Some (Str s) -> s | _ -> "?"
      in
      Printf.printf "\n-- %s --\n" name;
      let results =
        match member "results" p with Some (List l) -> l | _ -> []
      in
      render_fleet_results results;
      print_newline ();
      render_fleet_knee (member "knee" p))
    policies;
  `Ok ()

let render_stats_file file =
  match Obs.Timeseries.read file with
  | Ok (_header, rows) ->
    print_string (Obs.Timeseries.render rows);
    `Ok ()
  | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)

let fleet_summary file =
  match Report.Json.of_file file with
  | exception Sys_error e -> `Error (false, e)
  (* Not one JSON document — a stats stream's rows are trailing values. *)
  | exception Report.Json.Parse_error _ -> render_stats_file file
  | doc -> (
    match Report.Json.member "schema" doc with
    | Some (Report.Json.Str "bastion-fleet/2") -> render_fleet_doc doc
    | Some (Report.Json.Str s) when String.equal s Obs.Timeseries.schema ->
      render_stats_file file
    | Some (Report.Json.Str s) ->
      `Error (false, Printf.sprintf "%s: unknown schema %S" file s)
    | _ ->
      `Error
        ( false,
          Printf.sprintf
            "%s: no schema tag (want \"bastion-fleet/2\" or %S)" file
            Obs.Timeseries.schema ))

let fleet_summary_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"A fleet sweep JSON (`bastion fleet --json`, BENCH_fleet.json) \
                or a stats JSONL stream (`--stats`).")
  in
  Cmd.v
    (Cmd.info "fleet-summary"
       ~doc:"Summarise a fleet sweep JSON or a --stats time-series stream")
    Term.(ret (const fleet_summary $ file))

(* --- attack ----------------------------------------------------------- *)

let print_row (row : Attacks.Runner.row) =
  let f o = match o with
    | Attacks.Runner.Blocked _ -> "blocked"
    | Attacks.Runner.Succeeded -> "SUCCEEDED"
    | Attacks.Runner.Inert -> "inert"
  in
  Printf.printf "%-22s undef=%s ct=%s cf=%s ai=%s full=%s tier=%s %s\n"
    row.r_attack.a_id
    (f row.r_undefended) (f row.r_ct) (f row.r_cf) (f row.r_ai) (f row.r_full)
    (Attacks.Runner.tier_name (Attacks.Runner.catching_tier row))
    (if Attacks.Runner.matches_expectation row then "(matches Table 6)"
     else "(MISMATCH vs Table 6)")

(* Per-tier resolution counts over an evaluated catalog: how many
   attacks the cheap seccomp-stage tier stops on its own. *)
let print_tier_summary (rows : Attacks.Runner.row list) =
  let count t =
    List.length
      (List.filter (fun r -> Attacks.Runner.catching_tier r = t) rows)
  in
  Printf.printf
    "tiers: %d stopped by the seccomp-stage pre-filter alone, %d by the full \
     monitor behind it, %d uncaught\n"
    (count Attacks.Runner.Tier_prefilter)
    (count Attacks.Runner.Tier_full)
    (count Attacks.Runner.Tier_uncaught)

let run_attack verbose id all config shards audit =
  setup_logs verbose;
  match audit with
  | Some path -> (
    (* Recording needs exactly one attack under exactly one monitored
       configuration: that pair is what the trace header pins down. *)
    match (id, config) with
    | Some attack_id, Some cfg when cfg <> Attacks.Runner.Undefended -> (
      try
        let outcome =
          Engine.record_attack ~attack_id ~config:cfg ~path ()
        in
        Printf.printf "%-22s %-10s %s\n" attack_id
          (Attacks.Runner.config_name cfg)
          (Attacks.Runner.outcome_name outcome);
        Printf.printf "audit log : %s\n" path;
        `Ok ()
      with Bastion_replay.Trace.Malformed _ as e ->
        `Error (false, Option.get (Bastion_replay.Trace.describe_malformed e)))
    | _ ->
      `Error
        ( false,
          "--audit requires --id ID and --config CONFIG with a monitored \
           configuration (ct, cf, ai, full)" ))
  | None ->
  let chosen =
    if all then Attacks.Catalog.all
    else
      match id with
      | Some id ->
        List.filter (fun (a : Attacks.Attack.t) -> String.equal a.a_id id) Attacks.Catalog.all
      | None -> []
  in
  if chosen = [] then
    `Error (false, "no attack selected; use --id ID or --all (see `bastion list`)")
  else if shards < 1 then `Error (false, "--shards must be >= 1")
  else if shards > 1 && (not all || config <> None) then
    `Error (false, "--shards only applies to `attack --all` without --config")
  else if shards > 1 then begin
    (* One Table 6 row per tracee on the monitor pool. *)
    let rows, stats = Attacks.Runner.evaluate_all_sharded ~shards () in
    List.iter print_row rows;
    print_tier_summary rows;
    Array.iter
      (fun (sh : Bastion_mt.Monitor_pool.shard_stats) ->
        Printf.printf "shard %d: %d rows\n" sh.sh_shard sh.sh_tracees)
      stats.p_shards;
    `Ok ()
  end
  else begin
    let rows = ref [] in
    List.iter
      (fun (attack : Attacks.Attack.t) ->
        match config with
        | Some config ->
          let outcome = Attacks.Runner.run attack config in
          Printf.printf "%-22s %-10s %s\n" attack.a_id
            (Attacks.Runner.config_name config)
            (Attacks.Runner.outcome_name outcome)
        | None ->
          let row = Attacks.Runner.evaluate attack in
          rows := row :: !rows;
          print_row row)
      chosen;
    if all && config = None then print_tier_summary (List.rev !rows);
    `Ok ()
  end

let attack_cmd =
  let id =
    Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ID" ~doc:"Attack id.")
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run the whole catalog.") in
  let config =
    Arg.(
      value
      & opt (some (enum Engine.configs)) None
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:"Run under one configuration only (none, ct, cf, ai, full); default: all five.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"With --all: evaluate the catalog over N worker domains, one \
                Table 6 row per tracee (results identical to serial).")
  in
  let audit =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE"
          ~doc:"Record the monitored run (requires --id and a monitored \
                --config) as a replayable JSONL trace at FILE.")
  in
  Cmd.v (Cmd.info "attack" ~doc:"Run attacks from the Table 6 catalog")
    Term.(ret (const run_attack $ verbose_arg $ id $ all $ config $ shards $ audit))

(* --- replay ------------------------------------------------------------ *)

(* One JSON value for one trace, a list for several — so the classic
   single-trace report shape is unchanged. *)
let json_of_reports to_json = function
  | [ r ] -> to_json r
  | rs -> Report.Json.List (List.map to_json rs)

let replay_trace verbose files strict json against diff_out =
  setup_logs verbose;
  let positioned e =
    match Bastion_replay.Trace.describe_malformed e with
    | Some msg -> `Error (false, msg)
    | None -> raise e
  in
  try
    let traces = List.map Bastion_replay.Trace.read_file files in
    match against with
    | None ->
      let reports = List.map (Engine.replay ~strict) traces in
      (match json with
      | Some path ->
        Report.Json.to_file path
          (json_of_reports Engine.report_to_json reports)
      | None -> ());
      List.iter (fun r -> print_string (Engine.render r)) reports;
      let bad =
        List.filter (fun r -> not (Engine.ok r)) reports
      in
      if bad = [] then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf
              "%d of %d trace(s) diverged between recorded and replayed runs"
              (List.length bad) (List.length reports) )
    | Some spec ->
      let diff_one tr =
        let against =
          match spec with
          | "current" -> None
          | file ->
            let base = Engine.base_bundle tr in
            Some (Bastion.Metadata_io.load ~file base.inst.iprog)
        in
        Engine.diff_replay ?against tr
      in
      let reports = List.map diff_one traces in
      (match diff_out with
      | Some path ->
        Report.Json.to_file path
          (json_of_reports Engine.diff_report_to_json reports)
      | None -> ());
      List.iter
        (fun r -> print_string (Engine.render_diff r))
        reports;
      let bad =
        List.filter (fun r -> not (Engine.diff_ok r)) reports
      in
      if bad = [] then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf
              "%d of %d trace(s) show verdict flips, context moves or a dead \
               replay"
              (List.length bad) (List.length reports) )
  with
  | Sys_error e -> `Error (false, e)
  | Bastion_replay.Trace.Malformed _ as e -> positioned e
  | Bastion.Metadata_io.Parse_error (ln, msg) ->
    `Error (false, Printf.sprintf "--against metadata line %d: %s" ln msg)

let replay_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TRACE"
          ~doc:"JSONL trap trace(s) written by `bastion run --audit` or \
                `bastion attack --audit`.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Also compare per-phase spans, trap-entry cycles, verdict-cache \
                disposition and ptrace/shadow traffic counters.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"REPORT"
          ~doc:"Also write the divergence report as JSON to REPORT.")
  in
  let against =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"current|FILE"
          ~doc:"Differential replay: judge the recorded stream through a \
                monitor built from changed metadata — $(b,current) rebuilds \
                the in-tree compile pass (the regression oracle), FILE loads \
                an edited metadata file — and report what moved instead of \
                refusing a fingerprint mismatch.")
  in
  let diff_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff" ] ~docv:"REPORT"
          ~doc:"With --against: also write the structured what-moved report \
                as JSON to REPORT.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-verify recorded trap streams against the real monitor (exit \
             non-zero on any divergence; with --against, on any verdict flip)")
    Term.(
      ret
        (const replay_trace $ verbose_arg $ files $ strict $ json $ against
        $ diff_out))

(* --- list ------------------------------------------------------------- *)

let list_all () =
  print_endline "applications:";
  List.iter (Printf.printf "  %s\n") Engine.apps;
  print_endline "defenses:";
  List.iter (fun (n, _) -> Printf.printf "  %s\n" n) defenses;
  Printf.printf "attacks (%d):\n" Attacks.Catalog.count;
  List.iter
    (fun (a : Attacks.Attack.t) ->
      Printf.printf "  %-22s %-8s %s\n" a.a_id a.a_category a.a_name)
    Attacks.Catalog.all;
  `Ok ()

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List applications, defenses and attacks")
    Term.(ret (const list_all $ const ()))

(* --- main ------------------------------------------------------------- *)

let () =
  let doc = "BASTION system-call integrity — OCaml reproduction" in
  let info = Cmd.info "bastion" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd; lint_cmd; run_cmd; replay_cmd; attack_cmd; list_cmd;
            trace_summary_cmd; fleet_cmd; fleet_summary_cmd;
          ]))
