(* The [fleet] workload: profiles harvested from the three models at
   their small scale under CET+CT+CF+AI, 64 tracees with seeded weights
   and offsets, open-loop arrivals through the two-shard monitor pool.
   The interpreter runs only in set-up; the measured phase is the
   pool.  One op is one trap offered through [Monitor_pool]. *)

module Fleet = Workloads.Fleet
module D = Workloads.Drivers

let paper = List.assoc "CET+CT+CF+AI" Paper_data.figure3

(** Set-up: the profile harvest and the fleet build. *)
let setup ~seed =
  Fleet_eval.make ~seed
    (List.map (fun (name, app) -> (name, Fleet.harvest_profile app)) (Fleet.small_apps ()))

(** The harvested deployments' own modelled overhead against vanilla,
    per app. *)
let overheads out =
  List.iter2
    (fun (k, app) paper ->
      match Apps_wl.execute out (D.prepare app D.Bastion_full) with
      | None -> ()
      | Some m -> (
        match Apps_wl.execute out (D.prepare app D.Vanilla) with
        | None -> ()
        | Some v ->
          let o = D.overhead_pct ~baseline:v m ~higher_is_better:app.D.higher_is_better in
          Out.set out ("overhead_pct." ^ k) o;
          Out.set out ("model_err_pp." ^ k) (o -. paper)))
    (Fleet.small_apps ()) paper

let e2e_names =
  [ "fleet.e2e_p99_cycles.load50"; "fleet.e2e_p99_cycles.load90"; "fleet.sustained_traps_per_s" ]

(** The untraced run.  The first set-up is a discarded warm-up (it also
    fills the drivers' compile caches, which the timed set-ups then
    share); the measured phase repeats the fleet evaluation until
    [seconds] of pool time have run, and each repeat must reproduce the
    first one's modelled numbers. *)
let run out ~seed ~seconds ~reps ~arrivals ~grid_arrivals =
  ignore (setup ~seed);
  let timed = List.init reps (fun _ -> Clock.scaled (fun () -> setup ~seed)) in
  let fleet, _, _ = List.hd timed in
  Out.set out "setup_s" (Stats.median (List.map (fun (_, _, s) -> s) timed));
  let raw_setup_s = Stats.median (List.map (fun (_, s, _) -> s) timed) in
  let rates = Stats.Rates.create () in
  Fleet_eval.evaluate out rates fleet ~arrivals ~grid_arrivals;
  Out.note_peak_heap out;
  let first = List.map (Out.get out) e2e_names in
  while rates.secs < seconds do
    Fleet_eval.evaluate out rates fleet ~arrivals ~grid_arrivals;
    if List.map (Out.get out) e2e_names <> first then
      Out.fail out "fleet: modelled numbers changed between repeats"
  done;
  Out.attempt out rates.ops;
  Out.set out "host_ops_per_s" (Stats.Rates.rate rates);
  (* Each scheduled trap's tracer-hook cycles: its service less the
     seccomp-stage pre-filter step. *)
  Apps_wl.report_trap_latency out
    (Array.map
       (fun (_, tp) -> Fleet.service tp - tp.Fleet.tp_prefilter)
       (Fleet.schedule fleet ~arrivals));
  overheads out;
  (fleet, raw_setup_s)

(** The traced run: the harvest again, each app run staged and
    executed from here under its own span with every seam wrapped; its
    profiles must equal [Fleet.harvest_profile]'s.  Then both placement
    arms at both loads.  [untraced_setup_s] is the untraced set-up's
    median in raw host seconds. *)
let traced out spans fleet ~arrivals ~untraced_setup_s =
  let prefilter = Machine.Cost.default.prefilter_eval in
  let harvested =
    List.map
      (fun (k, app) ->
        Spans.with_span spans "fleet.harvest" (fun () ->
            Spans.with_span spans ("app." ^ k) (fun () ->
                let recorder = Obs.Recorder.create ~tracing:true () in
                Obs.Recorder.set_on_event recorder (Some (Probe.fold_phases out));
                let pr =
                  Spans.with_span spans "api.launch" (fun () ->
                      D.prepare ~recorder app D.Bastion_full)
                in
                let tr = Probe.instrument spans pr.pr_machine pr.pr_process in
                ignore (Spans.with_span spans "machine.run" (fun () -> Apps_wl.execute out pr));
                if not (Probe.balanced tr.ledger pr.pr_machine) then begin
                  Out.addi out "ledger.mismatches" 1;
                  Out.fail out (k ^ ": cycle ledger does not sum to the machine total")
                end;
                Probe.absorb out tr pr.pr_machine pr.pr_process pr.pr_monitor;
                Array.of_list
                  (List.map
                     (fun (ev : Obs.Event.t) ->
                       let phase p = Probe.phase_cycles ev p in
                       let ct = phase Obs.Event.Ct and cf = phase Obs.Event.Cf
                       and ai = phase Obs.Event.Ai in
                       { Fleet.tp_prefilter = prefilter;
                         tp_snapshot = max 0 (ev.ev_dur - ct - cf - ai);
                         tp_ct = ct; tp_cf = cf; tp_ai = ai })
                     (Obs.Recorder.trap_events recorder)))))
      (Fleet.small_apps ())
  in
  (* Tracee k of the first three replays app k's harvested profile. *)
  List.iteri
    (fun k profile ->
      let tracee = fleet.Fleet.f_tracees.(k) in
      if tracee.ts_profile <> profile then
        Out.fail out (tracee.ts_app ^ ": traced harvest differs from Fleet.harvest_profile"))
    harvested;
  Out.set out "fleet.harvest_s" (Spans.total_s spans "fleet.harvest");
  Out.set out "api.launch_s" (Spans.total_s spans "api.launch");
  Out.set out "trace.overhead_frac" (Spans.total_s spans "fleet.harvest" /. untraced_setup_s -. 1.0);
  Fleet_eval.layers out spans fleet ~arrivals
