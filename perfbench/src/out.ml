(* What a run reports: the metric catalogue (name, unit, clock), the
   values one run measured, and the attempted / failed op counts.

   Two clocks, never mixed.  [Host] metrics are seconds (or rates over
   seconds) the OCaml simulator takes on the machine running the
   benchmark.  [Modelled] metrics are cycles from [Machine.Cost], or
   ratios of them; they repeat exactly for a given seed.  [Count]
   metrics are event counts, which also repeat exactly. *)

type clock = Host | Modelled | Count

type metric = { name : string; unit_ : string; clock : clock }

let m name unit_ clock = { name; unit_; clock }

(** The end-to-end metrics: every workload reports each of them. *)
let end_to_end =
  [
    m "setup_s" "s" Host;
    m "host_ops_per_s" "ops/s" Host;
    m "peak_heap_mb" "MB" Host;
    m "overhead_pct.nginx" "%" Modelled;
    m "overhead_pct.sqlite" "%" Modelled;
    m "overhead_pct.vsftpd" "%" Modelled;
    m "trap_p50_cycles" "cycles" Modelled;
    m "trap_p90_cycles" "cycles" Modelled;
    m "trap_p99_cycles" "cycles" Modelled;
    m "fleet.e2e_p99_cycles.load50" "cycles" Modelled;
    m "fleet.e2e_p99_cycles.load90" "cycles" Modelled;
    m "fleet.sustained_traps_per_s" "1/s" Modelled;
  ]

let fleet_arms = [ "static"; "steal" ]
let fleet_loads = [ "load50"; "load90" ]

(** The per-layer metrics of the traced run.  A layer a workload does
    not reach through a public boundary reads 0. *)
let per_layer =
  [
    m "failed_frac" "ratio" Count;
    m "trap.samples" "count" Count;
    m "model_err_pp.nginx" "pp" Modelled;
    m "model_err_pp.sqlite" "pp" Modelled;
    m "model_err_pp.vsftpd" "pp" Modelled;
    m "machine.instrs" "count" Count;
    m "machine.self_s" "s" Host;
    m "machine.instrs_per_s" "1/s" Host;
    m "kernel.syscalls" "count" Count;
    m "kernel.traps" "count" Count;
    m "kernel.self_s" "s" Host;
    m "cycles.kernel" "cycles" Modelled;
    m "prefilter.resolved" "count" Count;
    m "prefilter.fallthrough" "count" Count;
    m "prefilter.resolved_frac" "ratio" Count;
    m "ptrace.getregs" "count" Count;
    m "ptrace.calls_per_trap" "calls" Count;
    m "ptrace.words_per_trap" "words" Count;
    m "monitor.traps" "count" Count;
    m "monitor.self_s" "s" Host;
    m "monitor.ns_per_trap" "ns" Host;
    m "cycles.monitor" "cycles" Modelled;
    m "monitor.cycles_per_trap" "cycles" Modelled;
    m "monitor.denials" "count" Count;
    m "monitor.pre_resolved_hits" "count" Count;
    m "monitor.ctx_hits" "count" Count;
    m "monitor.ct_cycles" "cycles" Modelled;
    m "monitor.cf_cycles" "cycles" Modelled;
    m "monitor.ai_cycles" "cycles" Modelled;
    m "monitor.fetch_cycles" "cycles" Modelled;
    m "verdict_cache.hits" "count" Count;
    m "verdict_cache.misses" "count" Count;
    m "verdict_cache.hit_frac" "ratio" Count;
    m "runtime.intrinsic_calls" "count" Count;
    m "runtime.self_s" "s" Host;
    m "cycles.instrumentation" "cycles" Modelled;
    m "cycles.app" "cycles" Modelled;
    m "ledger.mismatches" "count" Count;
    m "shadow.lookups" "count" Count;
    m "shadow.mean_probe_len" "slots" Count;
    m "shadow.inserts" "count" Count;
    m "api.protect_s" "s" Host;
    m "api.launch_s" "s" Host;
    m "analysis.lint_s" "s" Host;
    m "analysis.preresolve_s" "s" Host;
    m "analysis.flowgraph_s" "s" Host;
    m "analysis.resolved_slots" "count" Count;
    m "fleet.harvest_s" "s" Host;
  ]
  @ List.concat_map
      (fun arm ->
        [
          m (Printf.sprintf "fleet.%s.plan_s" arm) "s" Host;
          m (Printf.sprintf "fleet.%s.serial_s" arm) "s" Host;
          m (Printf.sprintf "fleet.%s.pool_s" arm) "s" Host;
        ]
        @ List.concat_map
            (fun load ->
              let k s = Printf.sprintf "fleet.%s.%s.%s" arm load s in
              [
                m (k "service_mean_cycles") "cycles" Modelled;
                m (k "queue_wait_p99_cycles") "cycles" Modelled;
                m (k "util_spread") "ratio" Modelled;
                m (k "steals") "count" Count;
                m (k "migrations") "count" Count;
              ])
            fleet_loads)
      fleet_arms
  @ [
      m "attacks.evaluate_s" "s" Host;
      m "attacks.runs" "count" Count;
      m "attacks.tier_prefilter" "count" Count;
      m "attacks.tier_full" "count" Count;
      m "attacks.uncaught" "count" Count;
      m "replay.parse_s" "s" Host;
      m "replay.strict_s" "s" Host;
      m "replay.diff_s" "s" Host;
      m "replay.traps" "count" Count;
      m "replay.divergences" "count" Count;
      m "replay.flips" "count" Count;
      m "replay.tier_moves" "count" Count;
      m "gc.minor_mwords" "Mwords" Host;
      m "gc.major_collections" "count" Host;
      m "trace.overhead_frac" "ratio" Host;
    ]

type t = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first *)
}

let create () = { values = Hashtbl.create 128; attempted = 0; failed = 0; failures = [] }

let set t name v = Hashtbl.replace t.values name v
let seti t name v = set t name (float_of_int v)
let get t name = Hashtbl.find_opt t.values name

(** Accumulate into a metric (absent reads 0). *)
let add t name v = set t name (Option.value ~default:0.0 (get t name) +. v)
let addi t name v = add t name (float_of_int v)

let attempt t n = t.attempted <- t.attempted + n

(** The process's peak major heap so far.  Workloads read it after
    set-up and their first pass, so it does not depend on how many
    passes the measured phase fits in. *)
let note_peak_heap t =
  set t "peak_heap_mb"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0)

(** Count one failed op; it never stops the run. *)
let fail t why =
  t.failed <- t.failed + 1;
  t.failures <- why :: t.failures

let clock_name = function Host -> "host" | Modelled -> "modelled" | Count -> "count"

(* Shortest text that reads back as the same float, so no digit a run
   measured is lost. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

(** The result line: one JSON object with the chosen catalogue's
    metrics.  An end-to-end metric a workload failed to produce is a
    bug, reported by [Failure]; an unreached layer reads 0. *)
let result_json t ~traced =
  let catalogue = if traced then per_layer else end_to_end in
  let metric (x : metric) =
    let v =
      match get t x.name with
      | Some v when Float.is_finite v -> v
      | Some _ -> failwith (Printf.sprintf "metric %s is not finite" x.name)
      | None when traced -> 0.0
      | None -> failwith (Printf.sprintf "metric %s was not measured" x.name)
    in
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (number v) x.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) (max 1 t.attempted) t.failed
    (String.concat ", " (List.map metric catalogue))
