(* Outside-in observation of one deployment, through the public hook
   seams the replay engine already uses: [Machine.on_syscall] (the
   kernel), [Machine.on_intrinsic] (the ctx_* runtime library) and
   [Kernel.Process.tracer_hook] (the monitor).  A wrapper reads the
   machine's cycle counter and the host clock at each crossing and
   calls straight through, so it never charges a modelled cycle. *)

module Process = Kernel.Process

(** The untraced run's only probe: modelled cycles charged inside each
    tracer-hook window, one sample per trap, for the trap-latency
    percentiles. *)
let collect_trap_cycles (machine : Machine.t) (process : Process.t) buf =
  match process.tracer_hook with
  | None -> ()
  | Some hook ->
    process.tracer_hook <-
      Some
        (fun p ~sysno ~args ->
          let c0 = machine.stats.cycles in
          match hook p ~sysno ~args with
          | v ->
            Stats.Ints.push buf (machine.stats.cycles - c0);
            v
          | exception e ->
            Stats.Ints.push buf (machine.stats.cycles - c0);
            raise e)

(* ------------------------------------------------------------------ *)
(* The cycle ledger                                                    *)

(* Buckets: app instructions, ctx_* instrumentation, the kernel
   (dispatch, seccomp, pre-filter, context switches, syscall bodies)
   and the monitor (everything inside the tracer hook). *)
let app = 0
let instrumentation = 1
let kernel = 2
let monitor = 3

type ledger = {
  buckets : int array;
  mutable last : int;          (* machine cycles at the last crossing *)
  mutable open_ : int list;    (* open windows, innermost first *)
  mutable anomalies : int;     (* misplaced windows or missing fixed charges *)
}

let ledger () = { buckets = Array.make 4 0; last = 0; open_ = []; anomalies = 0 }

let current l = match l.open_ with b :: _ -> b | [] -> app

(* Charge the cycles since the last crossing to the innermost open
   window; returns them. *)
let advance l (m : Machine.t) =
  let c = m.stats.cycles in
  let seg = c - l.last in
  l.buckets.(current l) <- l.buckets.(current l) + seg;
  l.last <- c;
  seg

(* The machine charges a fixed per-call cost just before it enters a
   hook ([Cost.call] before a syscall, [Cost.intrinsic] before an
   intrinsic).  It belongs to the window, so it moves there from the
   enclosing bucket; a segment too short to hold it is an anomaly. *)
let enter l m w ~fixed ~parent =
  let seg = advance l m in
  if seg < fixed || current l <> parent then l.anomalies <- l.anomalies + 1;
  l.buckets.(current l) <- l.buckets.(current l) - fixed;
  l.buckets.(w) <- l.buckets.(w) + fixed;
  l.open_ <- w :: l.open_

let leave l m =
  ignore (advance l m);
  match l.open_ with
  | _ :: rest -> l.open_ <- rest
  | [] -> l.anomalies <- l.anomalies + 1

(** Close the ledger at the end of a run; true when the four buckets
    sum to the machine's cycle total exactly and no window was
    misplaced. *)
let balanced l (m : Machine.t) =
  ignore (advance l m);
  l.anomalies = 0 && l.open_ = []
  && Array.fold_left ( + ) 0 l.buckets = m.stats.cycles
  && Array.for_all (fun b -> b >= 0) l.buckets

(* ------------------------------------------------------------------ *)
(* The traced run's wrappers                                           *)

type traced = {
  spans : Spans.t;
  ledger : ledger;
  trap_cycles : Stats.Ints.t;
  mutable intrinsic_calls : int;
}

let window tr (machine : Machine.t) name w ~fixed ~parent f =
  Spans.enter tr.spans name;
  enter tr.ledger machine w ~fixed ~parent;
  match f () with
  | v ->
    leave tr.ledger machine;
    Spans.leave tr.spans;
    v
  | exception e ->
    leave tr.ledger machine;
    Spans.leave tr.spans;
    raise e

(** Wrap all three seams of a staged session.  Spans: "kernel" per
    syscall, "monitor" per trap (inside its "kernel"), "runtime" per
    intrinsic, all children of the run span open around execution. *)
let instrument spans (machine : Machine.t) (process : Process.t) =
  let tr =
    { spans; ledger = ledger (); trap_cycles = Stats.Ints.create (); intrinsic_calls = 0 }
  in
  let cost = machine.config.cost in
  (match machine.on_syscall with
  | Some h ->
    machine.on_syscall <-
      Some
        (fun m ~sysno ~args ->
          window tr machine "kernel" kernel ~fixed:cost.call ~parent:app (fun () ->
              h m ~sysno ~args))
  | None -> ());
  (match machine.on_intrinsic with
  | Some h ->
    machine.on_intrinsic <-
      Some
        (fun m ~name ~args ->
          tr.intrinsic_calls <- tr.intrinsic_calls + 1;
          window tr machine "runtime" instrumentation ~fixed:cost.intrinsic ~parent:app
            (fun () -> h m ~name ~args))
  | None -> ());
  (match process.tracer_hook with
  | Some hook ->
    process.tracer_hook <-
      Some
        (fun p ~sysno ~args ->
          let c0 = machine.stats.cycles in
          let v =
            window tr machine "monitor" monitor ~fixed:0 ~parent:kernel (fun () ->
                hook p ~sysno ~args)
          in
          Stats.Ints.push tr.trap_cycles (machine.stats.cycles - c0);
          v)
  | None -> ());
  tr

(** Modelled cycles one trap event charged in a check phase. *)
let phase_cycles (ev : Obs.Event.t) p =
  List.fold_left
    (fun acc (sp : Obs.Event.span) -> if sp.sp_phase = p then acc + sp.sp_dur else acc)
    0 ev.ev_spans

(** Fold a trap event into the monitor's per-phase cycle totals; what
    no check phase charged is the state fetch. *)
let fold_phases (out : Out.t) (ev : Obs.Event.t) =
  let ct = phase_cycles ev Obs.Event.Ct and cf = phase_cycles ev Obs.Event.Cf
  and ai = phase_cycles ev Obs.Event.Ai in
  Out.addi out "monitor.ct_cycles" ct;
  Out.addi out "monitor.cf_cycles" cf;
  Out.addi out "monitor.ai_cycles" ai;
  Out.addi out "monitor.fetch_cycles" (ev.ev_dur - ct - cf - ai)

(** A flight recorder that keeps nothing and only folds phases. *)
let phase_recorder (out : Out.t) =
  let r = Obs.Recorder.create ~ring_capacity:1 () in
  Obs.Recorder.set_on_event r (Some (fold_phases out));
  r

(** Fold one traced run's counters into the report: the ledger, the
    kernel and ptrace accounting, and (when a monitor is attached) its
    counters, verdict cache and shadow table. *)
let absorb (out : Out.t) tr (machine : Machine.t) (process : Process.t)
    (mon : Bastion.Monitor.t option) =
  let b = tr.ledger.buckets in
  Out.addi out "cycles.app" b.(app);
  Out.addi out "cycles.instrumentation" b.(instrumentation);
  Out.addi out "cycles.kernel" b.(kernel);
  Out.addi out "cycles.monitor" b.(monitor);
  Out.addi out "machine.instrs" machine.stats.instrs;
  Out.addi out "kernel.syscalls" machine.stats.syscalls;
  Out.addi out "kernel.traps" process.trap_count;
  Out.addi out "runtime.intrinsic_calls" tr.intrinsic_calls;
  Out.addi out "ptrace.getregs" process.tracer.getregs_count;
  Out.addi out "ptrace.calls" process.tracer.calls_made;
  Out.addi out "ptrace.words" process.tracer.words_read;
  match mon with
  | None -> ()
  | Some mon ->
    let resolved, fallthrough, _ = Bastion.Monitor.prefilter_stats mon in
    let hits, misses, _ = Bastion.Monitor.cache_stats mon in
    let shadow = mon.runtime.shadow in
    Out.addi out "prefilter.resolved" resolved;
    Out.addi out "prefilter.fallthrough" fallthrough;
    Out.addi out "monitor.traps" mon.traps_checked;
    Out.addi out "monitor.denials" (List.length (Bastion.Monitor.denials mon));
    Out.addi out "monitor.pre_resolved_hits" (Bastion.Monitor.pre_resolved_hits mon);
    Out.addi out "monitor.ctx_hits" (Bastion.Monitor.ctx_resolved_hits mon);
    Out.addi out "verdict_cache.hits" hits;
    Out.addi out "verdict_cache.misses" misses;
    Out.addi out "shadow.lookups" (Bastion.Shadow_memory.lookup_count shadow);
    Out.addi out "shadow.probes" (Bastion.Shadow_memory.probe_count shadow);
    Out.addi out "shadow.inserts" (Bastion.Shadow_memory.insert_count shadow)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(** Derive the per-layer ratios and self times once every traced run
    has been absorbed. *)
let finish_layers (out : Out.t) spans =
  let g name = Option.value ~default:0.0 (Out.get out name) in
  let traps = g "monitor.traps" and ktraps = g "kernel.traps" in
  Out.set out "machine.self_s" (Spans.self_s spans "machine.run");
  Out.set out "kernel.self_s" (Spans.self_s spans "kernel");
  Out.set out "monitor.self_s" (Spans.self_s spans "monitor");
  Out.set out "runtime.self_s" (Spans.self_s spans "runtime");
  Out.set out "machine.instrs_per_s"
    (ratio (g "machine.instrs") (Spans.self_s spans "machine.run"));
  Out.set out "prefilter.resolved_frac"
    (ratio (g "prefilter.resolved") (g "prefilter.resolved" +. g "prefilter.fallthrough"));
  Out.set out "ptrace.calls_per_trap" (ratio (g "ptrace.calls") ktraps);
  Out.set out "ptrace.words_per_trap" (ratio (g "ptrace.words") ktraps);
  Out.set out "monitor.ns_per_trap"
    (ratio (Spans.total_s spans "monitor" *. 1e9) (float_of_int (Spans.count spans "monitor")));
  Out.set out "monitor.cycles_per_trap" (ratio (g "cycles.monitor") traps);
  Out.set out "verdict_cache.hit_frac"
    (ratio (g "verdict_cache.hits") (g "verdict_cache.hits" +. g "verdict_cache.misses"));
  Out.set out "shadow.mean_probe_len" (ratio (g "shadow.probes") (g "shadow.lookups"))
