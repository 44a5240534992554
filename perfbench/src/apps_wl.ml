(* The [apps] and [apps-fs] workloads: NGINX, SQLite and vsftpd under
   one protected deployment, each beside a vanilla run of the same
   parameters for the modelled baseline.  One op is one simulated
   syscall dispatched in a protected run. *)

open Workloads
module D = Drivers

type deploy = {
  defense : D.defense;
  fs : bool;                  (* protect the filesystem syscalls too *)
  prefilter : Kernel.Seccomp.flow_mode option;
  paper : float list;         (* the paper's overhead row, per app *)
}

(* Both deployments run with the verdict cache and constant-argument
   pre-resolution on, behind the tiered syscall-flow pre-filter. *)

(** Figure 3's deployment, CET+CT+CF+AI. *)
let shipping =
  { defense = D.Bastion_full; fs = false; prefilter = Some Kernel.Seccomp.Flow_tiered;
    paper = List.assoc "CET+CT+CF+AI" Paper_data.figure3 }

(** Table 7's full-context-checking row: every file and socket I/O
    syscall traps. *)
let fs_full =
  { defense = D.Bastion_fs Bastion.Monitor.Fs_full; fs = true;
    prefilter = Some Kernel.Seccomp.Flow_tiered;
    paper = List.map snd (List.assoc "full context checking" Paper_data.table7) }

let keys = [ "nginx"; "sqlite"; "vsftpd" ]

let apps_of (d : Params.draw) =
  [ ("nginx", D.nginx ~params:d.nginx ()); ("sqlite", D.sqlite ~params:d.sqlite ());
    ("vsftpd", D.vsftpd ~params:d.vsftpd ()) ]

(** The models' golden-corpus scale, for smoke runs. *)
let small_draw =
  { Params.nginx = Nginx_model.small; sqlite = Sqlite_model.small; vsftpd = Vsftpd_model.small }

let span spans name f = match spans with Some s -> Spans.with_span s name f | None -> f ()

(** The compile pass, with the lint gate.  A bundle passed to the
    drivers bypasses their protect caches, so every call pays the
    whole pass. *)
let compile ?spans dep (app : D.app) =
  let prog = Lazy.force app.prog in
  let base =
    span spans "api.protect" (fun () ->
        Bastion.Api.protect ~protect_filesystem:dep.fs ~validate:true prog)
  in
  span spans "analysis.preresolve" (fun () -> Bastion_analysis.Preresolve.enrich base)

let stage ?recorder dep app bundle =
  D.prepare ~trap_cache:true ?prefilter:dep.prefilter ?recorder ~bundle app dep.defense

(** Run a staged session; a run that dies or records a denial is a
    failed op. *)
let execute out (pr : D.prepared) =
  match D.execute pr with
  | m ->
    (match pr.pr_monitor with
    | Some mon when Bastion.Monitor.denials mon <> [] ->
      Out.fail out (Printf.sprintf "%s: benign run recorded a denial" m.m_app)
    | _ -> ());
    Some m
  | exception D.Benign_run_died msg ->
    Out.fail out msg;
    None

(* What must repeat exactly between runs of one configuration. *)
let signature (m : D.measurement) = (m.m_cycles, m.m_traps, m.m_syscalls, m.m_metric)

type first = {
  f_draw : int;
  f_key : string;
  f_app : D.app;
  f_bundle : Bastion.Api.protected;
  f_sig : int * int * int * float;
  f_trap_sum : int;
}

type untraced = { u_firsts : first list; u_first_exec_s : float }

let trap_latency cost c = (2 * cost.Machine.Cost.trap_context_switch) + c

(** Percentiles of trap latency, 2 x context switch plus the cycles
    charged inside the tracer hook.  A percentile without ten samples
    beyond it is left unset. *)
let report_trap_latency out (cycles : int array) =
  let lat = Array.map (trap_latency Machine.Cost.default) cycles in
  Out.seti out "trap.samples" (Array.length lat);
  List.iter
    (fun (name, p) ->
      match Stats.percentile lat p with Some v -> Out.set out name v | None -> ())
    [ ("trap_p50_cycles", 0.5); ("trap_p90_cycles", 0.9); ("trap_p99_cycles", 0.99) ]

let report_overheads out dep (per_app : (string, float list) Hashtbl.t) =
  List.iter2
    (fun k paper ->
      match Hashtbl.find_opt per_app k with
      | Some (_ :: _ as xs) ->
        let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
        Out.set out ("overhead_pct." ^ k) mean;
        Out.set out ("model_err_pp." ^ k) (mean -. paper)
      | _ -> ())
    keys dep.paper

(** The untraced run.  Set-up of each parameter draw is timed apart,
    after one discarded warm-up and topped up to [reps] samples with
    further set-ups whose sessions are dropped; the protected runs are
    the measured phase, whole sets of them repeated round-robin until
    [seconds] of them have run.  Vanilla baselines and the fleet
    evaluation are not timed. *)
let run out ~dep ~draws ~reps ~seconds ~arrivals ~grid_arrivals =
  let set_up draw =
    let staged, _, scaled =
      Clock.scaled (fun () ->
          List.map (fun (k, app) -> let b = compile dep app in (k, app, b, stage dep app b))
            (apps_of draw))
    in
    (staged, scaled)
  in
  ignore (set_up (List.hd draws));
  let setups =
    ref (List.init (max 0 (reps - List.length draws)) (fun _ -> snd (set_up (List.hd draws))))
  in
  let rates = Stats.Rates.create () in
  let firsts = ref [] in
  let trap_bufs = List.map (fun k -> (k, Stats.Ints.create ())) keys in
  let overheads = Hashtbl.create 3 in
  (* Each app's run is a chunk of its own kind. *)
  let timed_execute kind pr =
    let m, secs, scaled_secs = Clock.scaled (fun () -> execute out pr) in
    Option.iter
      (fun (m : D.measurement) ->
        Stats.Rates.add rates ~kind ~ops:m.m_syscalls ~secs ~scaled_secs)
      m;
    m
  in
  List.iteri
    (fun i draw ->
      let staged, dt = set_up draw in
      setups := dt :: !setups;
      List.iter
        (fun (k, (app : D.app), b, (pr : D.prepared)) ->
          let buf = Stats.Ints.create () in
          Probe.collect_trap_cycles pr.pr_machine pr.pr_process buf;
          match timed_execute k pr with
          | None -> ()
          | Some m ->
            let pool = List.assoc k trap_bufs in
            Array.iter (Stats.Ints.push pool) (Stats.Ints.to_array buf);
            firsts :=
              { f_draw = i; f_key = k; f_app = app; f_bundle = b; f_sig = signature m;
                f_trap_sum = Stats.Ints.sum buf }
              :: !firsts;
            (match execute out (D.prepare app D.Vanilla) with
            | Some v ->
              let o = D.overhead_pct ~baseline:v m ~higher_is_better:app.higher_is_better in
              Hashtbl.replace overheads k
                (o :: Option.value ~default:[] (Hashtbl.find_opt overheads k))
            | None -> ()))
        staged)
    draws;
  Out.note_peak_heap out;
  let first_exec_s = rates.secs in
  let firsts = List.rev !firsts in
  (* Repeat whole three-app sets, never part of one, so the mix of
     syscalls behind the rate is the same however long the phase. *)
  let n = ref 0 in
  while rates.secs < seconds && not (List.is_empty firsts) do
    let draw = !n mod List.length draws in
    incr n;
    List.iter
      (fun f ->
        match timed_execute f.f_key (stage dep f.f_app f.f_bundle) with
        | Some m when signature m <> f.f_sig ->
          Out.fail out (f.f_key ^ ": modelled numbers changed between repeats")
        | _ -> ())
      (List.filter (fun f -> f.f_draw = draw) firsts)
  done;
  Out.attempt out rates.ops;
  Out.set out "setup_s" (Stats.median !setups);
  Out.set out "host_ops_per_s" (Stats.Rates.rate rates);
  report_overheads out dep overheads;
  report_trap_latency out
    (Array.concat (List.map (fun (_, b) -> Stats.Ints.to_array b) trap_bufs));
  let prefilter =
    if dep.prefilter = None then 0 else Machine.Cost.default.prefilter_eval
  in
  let fleet =
    Fleet_eval.make ~seed:0
      (List.map
         (fun (k, b) -> (k, Array.map (Fleet_eval.profile ~prefilter) (Stats.Ints.to_array b)))
         trap_bufs)
  in
  Fleet_eval.evaluate out (Stats.Rates.create ()) fleet ~arrivals ~grid_arrivals;
  ({ u_firsts = firsts; u_first_exec_s = first_exec_s }, fleet)

(** The lint gate as [Lint.register_api_validator] installs it, inside
    its own span. *)
let with_timed_lint spans f =
  Bastion.Api.set_validator
    (Some
       (fun p ->
         Spans.with_span spans "analysis.lint" (fun () ->
             let open Bastion_analysis.Lint in
             List.map (Format.asprintf "%a" pp_diag) (errors (check p)))));
  Fun.protect ~finally:Bastion_analysis.Lint.register_api_validator f

(** The traced run: the first pass again, each app run under its own
    parent span, every layer boundary crossed from here.  Its modelled
    numbers must equal the untraced run's, and each run's cycle ledger
    must balance. *)
let traced out spans ~dep ~draws (u : untraced) =
  with_timed_lint spans (fun () ->
      List.iteri
        (fun i draw ->
          List.iter
            (fun (k, app) ->
              Spans.with_span spans ("app." ^ k) (fun () ->
                  let bundle = compile ~spans dep app in
                  ignore
                    (Spans.with_span spans "analysis.flowgraph" (fun () ->
                         Bastion_analysis.Flowgraph.extract bundle));
                  Out.addi out "analysis.resolved_slots"
                    (Bastion_analysis.Preresolve.resolved_slots bundle);
                  let recorder = Probe.phase_recorder out in
                  let pr = Spans.with_span spans "api.launch" (fun () -> stage ~recorder dep app bundle) in
                  let tr = Probe.instrument spans pr.pr_machine pr.pr_process in
                  let m = Spans.with_span spans "machine.run" (fun () -> execute out pr) in
                  if not (Probe.balanced tr.ledger pr.pr_machine) then begin
                    Out.addi out "ledger.mismatches" 1;
                    Out.fail out (k ^ ": cycle ledger does not sum to the machine total")
                  end;
                  Probe.absorb out tr pr.pr_machine pr.pr_process pr.pr_monitor;
                  match (List.find_opt (fun f -> f.f_draw = i && f.f_key = k) u.u_firsts, m) with
                  | Some f, Some m
                    when signature m = f.f_sig && Stats.Ints.sum tr.trap_cycles = f.f_trap_sum ->
                    ()
                  | _ -> Out.fail out (k ^ ": traced run's modelled numbers differ")))
            (apps_of draw))
        draws);
  Out.set out "api.protect_s" (Spans.total_s spans "api.protect");
  Out.set out "api.launch_s" (Spans.total_s spans "api.launch");
  Out.set out "analysis.lint_s" (Spans.total_s spans "analysis.lint");
  Out.set out "analysis.preresolve_s" (Spans.total_s spans "analysis.preresolve");
  Out.set out "analysis.flowgraph_s" (Spans.total_s spans "analysis.flowgraph");
  Out.set out "trace.overhead_frac" (Spans.total_s spans "machine.run" /. u.u_first_exec_s -. 1.0)
