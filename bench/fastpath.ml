(* The trap fast-path artifact (BENCH_trap_fastpath.json) and the
   `ablations` section's verdict-cache table: cycle totals and overhead %
   per configuration, with the trap-fast-path ablation (verdict cache
   on/off) inlined so one document records the before/after pair. *)

module D = Workloads.Drivers
module J = Report.Json
module Run = Results.Run

type row = {
  run : Run.t;
  trap_cache : bool option;  (* None on the unprotected baseline *)
  ptrace_calls : int;
  ptrace_words : int;
  cache : (int * int * float) option;  (* hits, misses, hit rate *)
  metrics : J.t option;  (* the run's own registry snapshot *)
}

let row ~app ~baseline ?trap_cache ?recorder (m : D.measurement) =
  let tracer = m.D.m_process.Kernel.Process.tracer in
  {
    run = Run.of_measurement ~baseline app m;
    trap_cache;
    ptrace_calls = tracer.Kernel.Ptrace.calls_made;
    ptrace_words = tracer.Kernel.Ptrace.words_read;
    cache = Option.map Bastion.Monitor.cache_stats m.D.m_monitor;
    metrics =
      Option.map (fun r -> Obs.Metrics.to_json (Obs.Recorder.metrics r)) recorder;
  }

(** Every app's unprotected baseline, then full BASTION and the Table 7
    [Fs_full] row, the last two with the verdict cache both on and off. *)
let rows : row list Lazy.t =
  lazy
    (List.concat_map
       (fun (app : D.app) ->
         let baseline = D.run app D.Vanilla in
         row ~app ~baseline baseline
         :: List.concat_map
              (fun defense ->
                List.map
                  (fun trap_cache ->
                    (* A fresh per-run registry: the snapshot folded into
                       this row belongs to exactly this run. *)
                    let recorder = Obs.Recorder.create ~metrics:true () in
                    row ~app ~baseline ~trap_cache ~recorder
                      (D.run ~trap_cache ~recorder app defense))
                  [ true; false ])
              [ D.Bastion_full; D.Bastion_fs Bastion.Monitor.Fs_full ])
       (Results.apps ()))

let row_json (r : row) : J.t =
  Run.json r.run
    ~key:
      [ ("trap_cache", match r.trap_cache with None -> J.Null | Some b -> J.Bool b) ]
    ~extra:
      ([ ("ptrace_calls", Run.int r.ptrace_calls); ("ptrace_words", Run.int r.ptrace_words) ]
      @ (match r.cache with
        | None -> []
        | Some (hits, misses, rate) ->
          [
            ("cache_hits", Run.int hits);
            ("cache_misses", Run.int misses);
            ("cache_hit_rate", J.Num rate);
          ])
      @ match r.metrics with None -> [] | Some m -> [ ("metrics", m) ])

let document () : J.t =
  J.Obj
    [
      ("schema", J.Str "bastion-bench/1");
      ( "note",
        J.Str
          "trap fast path: coalesced ptrace snapshot reads are always on; \
           trap_cache toggles the CT+CF verdict cache (the on/off pair is \
           the ablation record)" );
      ("results", J.List (List.map row_json (Lazy.force rows)));
    ]

(* The printed rendering: each cache-on row against its cache-off pair. *)
let print_ablation () =
  let rows = Lazy.force rows in
  List.iter
    (fun (on : row) ->
      if on.trap_cache = Some true then begin
        let off =
          List.find
            (fun (r : row) ->
              r.trap_cache = Some false
              && r.run.app.D.app_name = on.run.app.D.app_name
              && r.run.defense = on.run.defense)
            rows
        in
        let hits, misses, rate = Option.value on.cache ~default:(0, 0, 0.0) in
        Printf.printf
          "  %-8s %-22s cycles %9d -> %9d (-%.2f%%), ptrace calls %6d -> \
           %6d, cache %d/%d hits (%.1f%%)\n"
          on.run.app.D.app_name
          (D.defense_name on.run.defense)
          off.run.cycles on.run.cycles
          (float_of_int (off.run.cycles - on.run.cycles)
          /. float_of_int off.run.cycles *. 100.0)
          off.ptrace_calls on.ptrace_calls hits (hits + misses) (rate *. 100.0)
      end)
    rows
