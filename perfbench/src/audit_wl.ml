(* The [audit] workload: the Table 6 attack matrix (32 attacks, each
   under seven configurations) and strict and differential replay of
   the six golden traces.  It exercises the monitor's deny path, runs
   the compile pass once per victim, and is the only workload that
   reaches lib/attacks and lib/replay.  One op is one verdict: an
   attack outcome or a replayed trap. *)

module D = Workloads.Drivers
module Engine = Bastion_replay.Engine
module Trace = Bastion_replay.Trace
module Runner = Attacks.Runner

let corpus =
  [ "nginx-benign"; "sqlite-benign"; "vsftpd-benign"; "nginx-attack"; "sqlite-attack";
    "vsftpd-attack" ]

(** Where the golden traces live, relative to the repository root. *)
let golden_dir = ref "test/golden"

let trace_path name = Filename.concat !golden_dir (name ^ ".jsonl")

let paper = List.assoc "CET+CT+CF+AI" Paper_data.figure3

(** Set-up: trace parsing. *)
let parse names = List.map (fun n -> Trace.read_file (trace_path n)) names

(* [Runner.evaluate]'s seven configurations, in its row order. *)
let row_configs =
  [ (Runner.Undefended, None); (Runner.Only_ct, None); (Runner.Only_cf, None);
    (Runner.Only_ai, None); (Runner.Full_bastion, None);
    (Runner.Full_bastion, Some Kernel.Seccomp.Flow_standalone);
    (Runner.Full_bastion, Some Kernel.Seccomp.Flow_tiered) ]

(** One Table 6 row as [Runner.evaluate] builds it, each run through
    [run attack config prefilter] so a caller can reach the session
    [Runner.run] hands its [on_session] hook. *)
let evaluate_row ~run (a : Attacks.Attack.t) : Runner.row =
  match List.map (fun (config, prefilter) -> run a config prefilter) row_configs with
  | [ r_undefended; r_ct; r_cf; r_ai; r_full; r_prefilter; r_tiered ] ->
    { r_attack = a; r_undefended; r_ct; r_cf; r_ai; r_full; r_prefilter; r_tiered }
  | _ -> assert false

type pass = {
  rows : Runner.row list;
  strict : Engine.report list;
  diffs : Engine.diff_report list;
}

(** One pass over both corpora; [on_session] sees every monitored
    attack session before it runs. *)
let run_pass ?(on_session = ignore) ~attacks ~traces () =
  let run a config prefilter = Runner.run ?prefilter ~on_session a config in
  { rows = List.map (evaluate_row ~run) attacks;
    strict = List.map (Engine.replay ~strict:true) traces;
    diffs = List.map (fun tr -> Engine.diff_replay tr) traces }

let verdicts p =
  (List.length row_configs * List.length p.rows)
  + List.fold_left (fun acc (r : Engine.report) -> acc + r.rp_traps_replayed) 0 p.strict
  + List.fold_left (fun acc (d : Engine.diff_report) -> acc + d.dr_traps_matched) 0 p.diffs

let row_ok (r : Runner.row) =
  Runner.matches_expectation r && Runner.blocked r.r_full && Runner.blocked r.r_tiered
  && Runner.catching_tier r <> Runner.Tier_uncaught

(** Every correctness gate of one pass; each miss is a failed op. *)
let gate out p =
  List.iter
    (fun (r : Runner.row) ->
      if not (row_ok r) then Out.fail out (r.r_attack.a_id ^ ": attack row off expectation"))
    p.rows;
  List.iter
    (fun (r : Engine.report) ->
      if r.rp_header_mismatch <> None then Out.fail out (r.rp_file ^ ": header mismatch");
      List.iter
        (fun (d : Engine.divergence) ->
          Out.fail out (Printf.sprintf "%s:%d: strict replay diverged" r.rp_file d.dv_line))
        r.rp_divergences)
    p.strict;
  List.iter
    (fun (d : Engine.diff_report) ->
      let moved =
        List.length d.dr_allow_to_deny + List.length d.dr_deny_to_allow
        + List.length d.dr_context_moves
      in
      for _ = 1 to moved do
        Out.fail out (d.dr_file ^ ": diff replay moved a verdict")
      done;
      Option.iter (fun msg -> Out.fail out (d.dr_file ^ ": " ^ msg)) d.dr_run_outcome)
    p.diffs

(** The benign traces' recorded deployments, run live beside vanilla
    at the same scale, per app. *)
let overheads out traces =
  List.iter
    (fun (tr : Trace.t) ->
      let h = tr.t_header in
      match h.h_kind with
      | Trace.Attack _ -> ()
      | Trace.Run { app = name; defense; scale } -> (
        match (Engine.app_of ~name ~scale, Engine.defense_of_key defense) with
        | Ok app, Some defense -> (
          let run d =
            Apps_wl.execute out
              (D.prepare ~trap_cache:h.h_trap_cache ~pre_resolve:h.h_pre_resolve
                 ?prefilter:h.h_prefilter app d)
          in
          match (run defense, run D.Vanilla) with
          | Some m, Some v ->
            let o = D.overhead_pct ~baseline:v m ~higher_is_better:app.higher_is_better in
            let i = Option.get (List.find_index (( = ) name) Apps_wl.keys) in
            Out.set out ("overhead_pct." ^ name) o;
            Out.set out ("model_err_pp." ^ name) (o -. List.nth paper i)
          | _ -> ())
        | _ -> Out.fail out (tr.t_file ^ ": unknown recorded configuration")))
    traces

(** Recorded trap cycles per trace.  Strict replay re-judges every one
    of them and compares its cycles, so a pass without divergences
    vouches that the replayed traps charged exactly these. *)
let trap_cycles (tr : Trace.t) =
  Array.of_list (List.map (fun (_, (ev : Obs.Event.t)) -> ev.ev_dur) tr.t_events)

(** The untraced run: set-up reps (one discarded warm-up), one warm-up
    pass in corpus order that fills the drivers' caches and yields the
    modelled numbers, then timed passes in the seed's order until
    [seconds] have run, at least one.  The seed orders only the timed
    work, never what the modelled numbers are made of. *)
let run out ~seed ~seconds ~reps ~arrivals ~grid_arrivals =
  let names = Params.order ~seed corpus in
  let attacks = Params.order ~seed Attacks.Catalog.all in
  ignore (parse names);
  let timed = List.init reps (fun _ -> Clock.scaled (fun () -> parse names)) in
  let traces, _, _ = List.hd timed in
  Out.set out "setup_s" (Stats.median (List.map (fun (_, _, s) -> s) timed));
  let canonical = parse corpus in
  let attack_traps = Stats.Ints.create () in
  let warm =
    run_pass ~attacks:Attacks.Catalog.all ~traces:canonical
      ~on_session:(fun (s : Bastion.Api.session) ->
        Probe.collect_trap_cycles s.machine s.process attack_traps)
      ()
  in
  gate out warm;
  Out.note_peak_heap out;
  let rates = Stats.Rates.create () and passes = ref 0 in
  while !passes = 0 || rates.secs < seconds do
    let p, secs, scaled_secs = Clock.scaled (run_pass ~attacks ~traces) in
    Stats.Rates.add rates ~kind:"pass" ~ops:(verdicts p) ~secs ~scaled_secs;
    incr passes;
    gate out p
  done;
  Out.attempt out rates.ops;
  Out.set out "host_ops_per_s" (Stats.Rates.rate rates);
  Apps_wl.report_trap_latency out
    (Array.concat (Stats.Ints.to_array attack_traps :: List.map trap_cycles canonical));
  overheads out canonical;
  let fleet =
    Fleet_eval.make ~seed:0
      (List.map2
         (fun name (tr : Trace.t) ->
           let prefilter =
             if tr.t_header.h_prefilter = None then 0 else Machine.Cost.default.prefilter_eval
           in
           (name, Array.map (Fleet_eval.profile ~prefilter) (trap_cycles tr)))
         corpus canonical)
  in
  Fleet_eval.evaluate out (Stats.Rates.create ()) fleet ~arrivals ~grid_arrivals;
  (warm, rates.secs /. float_of_int !passes, fleet)

(** The traced run: the warm-up pass again, each attack run's session
    instrumented as soon as [Runner.run] has built it; its rows must
    equal the untraced ones.  Then the replays, timed as whole calls. *)
let traced out spans ~(warm : pass) ~untraced_pass_s =
  let pass_t0 = Clock.now_ns () in
  let run (a : Attacks.Attack.t) config prefilter =
    Spans.with_span spans ("attack." ^ a.a_id) (fun () ->
        (* The session exists once the compile pass and the launch are
           done: the execution span opens there. *)
        let session = ref None in
        let on_session (s : Bastion.Api.session) =
          Spans.enter spans "machine.run";
          session := Some (s, Probe.instrument spans s.machine s.process)
        in
        let close () = if Option.is_some !session then Spans.leave spans in
        let outcome =
          match Runner.run ?prefilter ~on_session a config with
          | o ->
            close ();
            o
          | exception e ->
            close ();
            raise e
        in
        Out.addi out "attacks.runs" 1;
        Option.iter
          (fun ((s : Bastion.Api.session), (tr : Probe.traced)) ->
            if not (Probe.balanced tr.ledger s.machine) then begin
              Out.addi out "ledger.mismatches" 1;
              Out.fail out (a.a_id ^ ": cycle ledger does not sum")
            end;
            Probe.absorb out tr s.machine s.process (Some s.monitor))
          !session;
        outcome)
  in
  let rows =
    Spans.with_span spans "attacks.evaluate" (fun () ->
        List.map (evaluate_row ~run) Attacks.Catalog.all)
  in
  let outcomes (r : Runner.row) =
    r.r_attack.a_id
    :: List.map Runner.outcome_name
         [ r.r_undefended; r.r_ct; r.r_cf; r.r_ai; r.r_full; r.r_prefilter; r.r_tiered ]
  in
  List.iter2
    (fun r w ->
      if outcomes r <> outcomes w then
        Out.fail out (w.Runner.r_attack.a_id ^ ": traced attack outcomes differ"))
    rows warm.rows;
  List.iter
    (fun (r : Runner.row) ->
      match Runner.catching_tier r with
      | Runner.Tier_prefilter -> Out.addi out "attacks.tier_prefilter" 1
      | Runner.Tier_full -> Out.addi out "attacks.tier_full" 1
      | Runner.Tier_uncaught -> Out.addi out "attacks.uncaught" 1)
    warm.rows;
  let traces = Spans.with_span spans "replay.parse" (fun () -> parse corpus) in
  let strict =
    Spans.with_span spans "replay.strict" (fun () ->
        List.map (Engine.replay ~strict:true) traces)
  in
  let diffs =
    Spans.with_span spans "replay.diff" (fun () -> List.map (fun tr -> Engine.diff_replay tr) traces)
  in
  let pass_s = Clock.since pass_t0 in
  List.iter
    (fun (r : Engine.report) ->
      Out.addi out "replay.traps" r.rp_traps_replayed;
      Out.addi out "replay.divergences" (List.length r.rp_divergences))
    strict;
  List.iter
    (fun (d : Engine.diff_report) ->
      Out.addi out "replay.flips"
        (List.length d.dr_allow_to_deny + List.length d.dr_deny_to_allow);
      Out.addi out "replay.tier_moves" d.dr_tier_moves)
    diffs;
  Out.set out "attacks.evaluate_s" (Spans.total_s spans "attacks.evaluate");
  Out.set out "replay.parse_s" (Spans.total_s spans "replay.parse");
  Out.set out "replay.strict_s" (Spans.total_s spans "replay.strict");
  Out.set out "replay.diff_s" (Spans.total_s spans "replay.diff");
  Out.set out "trace.overhead_frac" (pass_s /. untraced_pass_s -. 1.0)
