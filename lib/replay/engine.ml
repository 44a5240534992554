(* The replay engine: offline re-verification of a recorded trap
   stream against the real monitor.

   The monitor's verdict is a pure function of the deployed metadata
   and the per-trap snapshot, and the machine model is deterministic.
   Replay therefore re-executes the recorded configuration from
   scratch — same program, same protect bundle, same monitor knobs —
   but swaps the monitor's trap source so that every register file and
   stack snapshot is *injected from the trace* (charging identical
   modelled costs via [Ptrace.inject_*]) instead of read from the
   tracee.  The monitor re-judges each trap on its real verification
   path; a wrapped tracer hook hands the fresh event to the replay
   mode's judge and then follows the *recorded* verdict, so control
   flow always follows the recorded run and one corrupted record
   cannot derail the comparison of everything after it.  Strict and
   differential replay share that one re-execution core; they differ
   only in when a recorded trap stands for the live one and in what
   they make of each fresh judgement. *)

module Drivers = Workloads.Drivers
module Runner = Attacks.Runner
module Event = Obs.Event
module Ptrace = Kernel.Ptrace

(* ------------------------------------------------------------------ *)
(* Name registries.  The header stores short stable keys; recording,
   replay and the CLI resolve them through the same tables, so every
   side always builds the same run. *)

let defenses =
  [
    ("vanilla", Drivers.Vanilla);
    ("cfi", Drivers.Llvm_cfi);
    ("cet", Drivers.Cet_only);
    ("ct", Drivers.Bastion_ct);
    ("ct-cf", Drivers.Bastion_ct_cf);
    ("full", Drivers.Bastion_full);
    ("fs-off", Drivers.Bastion_fs Bastion.Monitor.Fs_off);
    ("fs-hook", Drivers.Bastion_fs Bastion.Monitor.Fs_hook_only);
    ("fs-fetch", Drivers.Bastion_fs Bastion.Monitor.Fs_fetch_only);
    ("fs-full", Drivers.Bastion_fs Bastion.Monitor.Fs_full);
  ]

let defense_key (d : Drivers.defense) : string =
  fst (List.find (fun (_, d') -> d' = d) defenses)

let defense_of_key key = List.assoc_opt key defenses

let configs =
  [
    ("none", Runner.Undefended);
    ("ct", Runner.Only_ct);
    ("cf", Runner.Only_cf);
    ("ai", Runner.Only_ai);
    ("full", Runner.Full_bastion);
  ]

let config_key (c : Runner.config) : string =
  fst (List.find (fun (_, c') -> c' = c) configs)

let config_of_key key = List.assoc_opt key configs

let scales = [ "default"; "small" ]

(* Each application model at both scales.  [small] is the golden-corpus
   scale: the models' [small] parameter sets — small enough to check in
   and to replay in a unit test, large enough to exercise
   accept/read/write/mprotect and the verdict cache. *)
let app_table : (string * (small:bool -> Drivers.app)) list =
  [
    ( "nginx",
      fun ~small ->
        if small then Drivers.nginx ~params:Workloads.Nginx_model.small ()
        else Drivers.nginx () );
    ( "sqlite",
      fun ~small ->
        if small then Drivers.sqlite ~params:Workloads.Sqlite_model.small ()
        else Drivers.sqlite () );
    ( "vsftpd",
      fun ~small ->
        if small then Drivers.vsftpd ~params:Workloads.Vsftpd_model.small ()
        else Drivers.vsftpd () );
  ]

let apps = List.map fst app_table

let app_of ~name ~scale : (Drivers.app, string) result =
  if not (List.mem scale scales) then
    Error (Printf.sprintf "unknown scale %S (known: %s)" scale
             (String.concat ", " scales))
  else
    match List.assoc_opt name app_table with
    | Some build -> Ok (build ~small:(String.equal scale "small"))
    | None ->
      Error (Printf.sprintf "unknown app %S (known: %s)" name (String.concat ", " apps))

let attack_of ~id : (Attacks.Attack.t, string) result =
  match
    List.find_opt (fun (a : Attacks.Attack.t) -> String.equal a.a_id id)
      Attacks.Catalog.all
  with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "unknown attack id %S (see `bastion list`)" id)

let malformed ~file msg = raise (Trace.Malformed { file; line = 1; msg })

(* The one way a header key fails: it names nothing this build knows,
   so the trace is refused at its header line. *)
let resolved ~file = function Ok v -> v | Error msg -> malformed ~file msg

let known what of_key key =
  Option.to_result ~none:(Printf.sprintf "unknown %s %S" what key) (of_key key)

(* The deployed metadata's fingerprint; "-" for a run without a monitor. *)
let fingerprint_of = function
  | Some mon -> Bastion.Monitor.fingerprint mon
  | None -> "-"

(* ------------------------------------------------------------------ *)
(* Recording *)

(* Default-scale SQLite records ~116k traps; give the audit ring ample
   headroom so a recorded stream is never silently truncated (a
   dropped-oldest ring would break seq contiguity and the reader would
   reject the file). *)
let recording_ring_capacity = 1 lsl 21

let recording_recorder () =
  Obs.Recorder.create ~tracing:true ~ring_capacity:recording_ring_capacity ()

(* The one header builder and writer: the recorded configuration, the
   deployed monitor's fingerprint and the stream's totals, written only
   if the ring kept every event. *)
let write_trace ~recorder ~path ~trap_cache ~pre_resolve ~prefilter ~monitor
    ~cycles kind : Trace.header =
  let dropped = Obs.Recorder.events_dropped recorder in
  if dropped > 0 then
    failwith
      (Printf.sprintf
         "recording dropped %d events (ring too small); refusing to write an \
          unreplayable trace to %s"
         dropped path);
  let header =
    {
      Trace.h_version = Trace.current_version;
      h_kind = kind;
      h_trap_cache = trap_cache;
      h_pre_resolve = pre_resolve;
      h_prefilter = prefilter;
      h_fingerprint = fingerprint_of monitor;
      h_against = None;
      h_traps = List.length (Obs.Recorder.trap_events recorder);
      h_cycles = cycles;
    }
  in
  Obs.Recorder.write_jsonl ~header:(Trace.header_to_json header) recorder path;
  header

let write_run ~recorder ~path ~app ~scale ~trap_cache ~pre_resolve ~prefilter
    (m : Drivers.measurement) =
  write_trace ~recorder ~path ~trap_cache ~pre_resolve ~prefilter
    ~monitor:m.m_monitor ~cycles:m.m_cycles
    (Trace.Run { app; defense = defense_key m.m_defense; scale })

let record_run ?(trap_cache = true) ?(pre_resolve = false) ?prefilter ~app
    ~scale ~defense ~path () : Drivers.measurement =
  let a = resolved ~file:path (app_of ~name:app ~scale) in
  let recorder = recording_recorder () in
  let m = Drivers.run ~trap_cache ~pre_resolve ?prefilter ~recorder a defense in
  ignore (write_run ~recorder ~path ~app ~scale ~trap_cache ~pre_resolve ~prefilter m);
  m

let record_attack ?(trap_cache = true) ?(pre_resolve = false) ?prefilter
    ~attack_id ~config ~path () : Runner.outcome =
  if config = Runner.Undefended then
    malformed ~file:path "undefended attack runs have no monitor to record";
  let attack = resolved ~file:path (attack_of ~id:attack_id) in
  let recorder = recording_recorder () in
  let session = ref None in
  let outcome =
    Runner.run ~trap_cache ~pre_resolve ?prefilter ~recorder
      ~on_session:(fun s -> session := Some s)
      attack config
  in
  (* [on_session] fires for every defended configuration. *)
  let s : Bastion.Api.session = Option.get !session in
  ignore
    (write_trace ~recorder ~path ~trap_cache ~pre_resolve ~prefilter
       ~monitor:(Some s.monitor) ~cycles:s.machine.stats.cycles
       (Trace.Attack { attack_id; config = config_key config }));
  outcome

(* ------------------------------------------------------------------ *)
(* The re-execution core *)

(* The recorded configuration, resolved once from the header. *)
type staged =
  | Run of Drivers.app * Drivers.defense
  | Attack of Attacks.Attack.t * Runner.config

let resolve (tr : Trace.t) : staged =
  let file = tr.t_file in
  match tr.t_header.h_kind with
  | Trace.Run { app; defense; scale } ->
    let app = resolved ~file (app_of ~name:app ~scale) in
    Run (app, resolved ~file (known "defense" defense_of_key defense))
  | Trace.Attack { attack_id; config } -> (
    let attack = resolved ~file (attack_of ~id:attack_id) in
    match resolved ~file (known "attack config" config_of_key config) with
    | Runner.Undefended ->
      malformed ~file "undefended attack runs have no monitor to replay"
    | config -> Attack (attack, config))

(* The recorded trap stream and the next record to match: the
   injection source peeks at it, the wrapped tracer hook (and
   differential replay's seccomp-boundary wrap) consumes it. *)
type cursor = { records : (int * Event.t) array; mutable next : int }

let cursor_of (tr : Trace.t) = { records = Array.of_list tr.t_events; next = 0 }

let peek c = if c.next < Array.length c.records then Some c.records.(c.next) else None

(* A mode's matching rule: may this recorded trap stand for the live
   trap [(sysno, rip)]? *)
type rule = sysno:int -> rip:int64 -> Event.t -> bool

let take c (matches : rule) ~sysno ~rip =
  match peek c with
  | Some (_, ev) as r when matches ~sysno ~rip ev ->
    c.next <- c.next + 1;
    r
  | _ -> None

let snapshot_of_input (tracer : Ptrace.t) (i : Event.input) : Ptrace.snapshot =
  let layout = tracer.machine.Machine.layout in
  {
    Ptrace.sn_frames =
      List.map
        (fun (f : Event.frame) ->
          {
            Ptrace.fv_func = f.f_func;
            fv_fidx = Option.value ~default:(-1) (Machine.Layout.find_func layout f.f_func);
            fv_callsite = f.f_callsite;
            fv_args = Array.copy f.f_args;
            fv_ret_token = f.f_ret;
            fv_base = f.f_base;
          })
        i.in_frames;
    sn_slots =
      Some
        (List.map
           (fun (s : Event.slot_read) ->
             (s.sr_base, { Ptrace.sl_lo = s.sr_lo; sl_span = Array.copy s.sr_span }))
           i.in_slots);
    sn_calls = 0;  (* recomputed from the shape by [inject_snapshot] *)
  }

(* The injected trap source: the next record's inputs, with
   live-identical cost accounting, wherever the mode's rule accepts
   that record for the live trap ([cur_sysno] and [trap_rip] are
   engine-side peeks, never charged).  Live reads everywhere else:
   past the recorded stream, for a record without inputs, or where the
   rule refuses. *)
let trap_source c (matches : rule) : Bastion.Monitor.trap_source =
  let input (tracer : Ptrace.t) =
    match peek c with
    | Some (_, ({ Event.ev_input = Some i; _ } as ev))
      when matches ~sysno:tracer.cur_sysno ~rip:tracer.machine.Machine.trap_rip ev ->
      Some (ev, i)
    | _ -> None
  in
  {
    Bastion.Monitor.ts_regs =
      (fun tracer ->
        match input tracer with
        | Some (ev, i) ->
          Ptrace.inject_regs tracer
            { Ptrace.rip = ev.ev_rip; sysno = ev.ev_sysno; args = Array.copy i.in_args }
        | None -> Ptrace.getregs tracer);
    ts_snapshot =
      (fun tracer ~span_words ->
        match input tracer with
        | Some (_, i) -> Ptrace.inject_snapshot tracer (snapshot_of_input tracer i)
        | None -> Ptrace.snapshot tracer ~span_words);
  }

(* The recorded verdict, as the tracer hook returns it. *)
let recorded_verdict (ev : Event.t) =
  match ev.ev_verdict with
  | Event.Allowed -> Kernel.Process.Continue
  | Event.Denied { d_context; d_detail } ->
    Kernel.Process.Deny { context = d_context; detail = d_detail }

(* A mode's judgement of one fresh trap: the recorded trap it consumed
   (with its trace line) if the rule matched one, the fresh event and
   the monitor's fresh verdict -> the verdict the tracee follows. *)
type judge =
  (int * Event.t) option -> Event.t -> Kernel.Process.verdict -> Kernel.Process.verdict

(* Wrap the monitor's tracer hook: run the real verification, consume
   the recorded trap the fresh event matches, and follow the verdict
   the mode's judge returns. *)
let wrap_hook c (matches : rule) (judge : judge) ~last (proc : Kernel.Process.t) =
  Option.iter
    (fun orig ->
      proc.tracer_hook <-
        Some
          (fun p ~sysno ~args ->
            last := None;
            let fresh_verdict = orig p ~sysno ~args in
            match !last with
            | None -> fresh_verdict
            | Some (fresh : Event.t) ->
              judge
                (take c matches ~sysno:fresh.ev_sysno ~rip:fresh.ev_rip)
                fresh fresh_verdict))
    proc.tracer_hook

(* Re-execute [tr]'s recorded configuration, with [bundle] (if any)
   overriding its compile pass.  Before anything executes, [handover] sees the fresh
   monitor and its fingerprint and returns the mode's judge (or raises
   to stop there); the source and hook are then armed with the mode's
   [matches] rule.  Returns the fresh cycle total and, if the replayed
   run died (following a corrupted recorded verdict can kill it), the
   death message. *)
let reexecute ~bundle (tr : Trace.t) c (matches : rule)
    ~(handover : Bastion.Monitor.t option -> string -> judge) =
  let { Trace.h_trap_cache = trap_cache; h_pre_resolve = pre_resolve;
        h_prefilter = prefilter; _ } = tr.t_header in
  let last = ref None in
  let recorder = Obs.Recorder.create () in
  Obs.Recorder.set_on_event recorder (Some (fun ev -> last := Some ev));
  let arm monitor process =
    let judge = handover monitor (fingerprint_of monitor) in
    Option.iter
      (fun mon -> Bastion.Monitor.set_source mon (trap_source c matches))
      monitor;
    wrap_hook c matches judge ~last process
  in
  match resolve tr with
  | Run (app, defense) ->
    let p =
      Drivers.prepare ~trap_cache ~pre_resolve ?prefilter ?bundle ~recorder app defense
    in
    arm p.pr_monitor p.pr_process;
    let death =
      match Drivers.execute p with
      | _ -> None
      | exception Drivers.Benign_run_died msg -> Some msg
    in
    (p.pr_machine.stats.cycles, death)
  | Attack (attack, config) ->
    let machine = ref None in
    let on_session (s : Bastion.Api.session) =
      machine := Some s.machine;
      arm (Some s.monitor) s.process
    in
    ignore
      (Runner.run ~trap_cache ~pre_resolve ?prefilter ?bundle ~recorder ~on_session
         attack config);
    (* [resolve] refused the undefended configuration, the only one
       without a session. *)
    ((Option.get !machine).Machine.stats.cycles, None)

(* ------------------------------------------------------------------ *)
(* Strict replay *)

type divergence = {
  dv_line : int;
  dv_seq : int;
  dv_field : string;
  dv_recorded : string;
  dv_replayed : string;
}

type report = {
  rp_file : string;
  rp_header : Trace.header;
  rp_traps_recorded : int;
  rp_traps_replayed : int;
  rp_cycles_replayed : int;
  rp_header_mismatch : (string * string) option;
      (* (recorded fingerprint, deployed fingerprint) when the hard
         gate refused to judge the stream — a run-level condition, not
         a per-trap divergence, so it never appears in
         [rp_divergences] *)
  rp_divergences : divergence list;
}

let ok r = r.rp_header_mismatch = None && r.rp_divergences = []

type state = {
  cursor : cursor;
  strict : bool;
  mutable extra : int;             (* fresh traps past the recorded stream *)
  mutable divs : divergence list;  (* reverse discovery order *)
}

let push st ~line ~seq field recorded replayed =
  st.divs <-
    { dv_line = line; dv_seq = seq; dv_field = field; dv_recorded = recorded;
      dv_replayed = replayed }
    :: st.divs

let verdict_str = function
  | Event.Allowed -> "allowed"
  | Event.Denied { d_context; d_detail } ->
    Printf.sprintf "denied[%s: %s]" d_context d_detail

let cache_str = function None -> "-" | Some true -> "hit" | Some false -> "miss"

let spans_str spans =
  String.concat " "
    (List.map
       (fun (sp : Event.span) ->
         Printf.sprintf "%s:%s@%d+%d" (Event.phase_name sp.sp_phase)
           (Event.outcome_name sp.sp_outcome) sp.sp_start sp.sp_dur)
       spans)

(* Field-by-field comparison of one trap.  The default set covers what
   the acceptance gate calls verdict/cycle divergences; [strict] adds
   every remaining recorded field. *)
let compare_event st ~line (recorded : Event.t) (fresh : Event.t) =
  let seq = recorded.ev_seq in
  let chk field conv a b = if a <> b then push st ~line ~seq field (conv a) (conv b) in
  chk "kind" Event.kind_name recorded.ev_kind fresh.ev_kind;
  chk "sysno" string_of_int recorded.ev_sysno fresh.ev_sysno;
  chk "sysname" Fun.id recorded.ev_sysname fresh.ev_sysname;
  chk "rip" (Printf.sprintf "0x%Lx") recorded.ev_rip fresh.ev_rip;
  chk "verdict" verdict_str recorded.ev_verdict fresh.ev_verdict;
  chk "depth" string_of_int recorded.ev_depth fresh.ev_depth;
  chk "dur_cycles" string_of_int recorded.ev_dur fresh.ev_dur;
  if st.strict then begin
    chk "seq" string_of_int recorded.ev_seq fresh.ev_seq;
    chk "start_cycles" string_of_int recorded.ev_start fresh.ev_start;
    chk "cache" cache_str recorded.ev_cache fresh.ev_cache;
    chk "ptrace_calls" string_of_int recorded.ev_ptrace_calls fresh.ev_ptrace_calls;
    chk "ptrace_words" string_of_int recorded.ev_ptrace_words fresh.ev_ptrace_words;
    chk "shadow_probes" string_of_int recorded.ev_shadow_probes fresh.ev_shadow_probes;
    chk "phases" spans_str recorded.ev_spans fresh.ev_spans
  end

(* Strict replay's rule: the next record stands for every live trap,
   so a record that no longer fits is itself reported as divergent. *)
let every_trap : rule = fun ~sysno:_ ~rip:_ _ -> true

(* Compare against the consumed record and follow its verdict; past the
   end of the recorded stream, note the extra trap and let the fresh
   verdict stand. *)
let strict_judge st : judge =
 fun consumed fresh fresh_verdict ->
  match consumed with
  | Some (line, recorded) ->
    compare_event st ~line recorded fresh;
    recorded_verdict recorded
  | None ->
    st.extra <- st.extra + 1;
    if st.extra = 1 then
      push st ~line:0 ~seq:(-1) "extra-trap" "(end of recorded stream)"
        (Printf.sprintf "%s(%d) at cycle %d" fresh.ev_sysname fresh.ev_sysno
           fresh.ev_start);
    fresh_verdict

let finish st (tr : Trace.t) ~fresh_cycles : report =
  let n = Array.length st.cursor.records and idx = st.cursor.next in
  if idx < n then begin
    let line, first_missing = st.cursor.records.(idx) in
    push st ~line ~seq:first_missing.Event.ev_seq "missing-traps"
      (Printf.sprintf "%d traps" n)
      (Printf.sprintf "%d traps (stream ends at seq %d)" idx
         first_missing.Event.ev_seq)
  end;
  if st.extra > 1 then
    push st ~line:0 ~seq:(-1) "extra-traps" "0"
      (Printf.sprintf "%d traps past the recorded stream" st.extra);
  if fresh_cycles <> tr.t_header.h_cycles then
    push st ~line:0 ~seq:(-1) "total-cycles"
      (string_of_int tr.t_header.h_cycles)
      (string_of_int fresh_cycles);
  {
    rp_file = tr.t_file;
    rp_header = tr.t_header;
    rp_traps_recorded = n;
    rp_traps_replayed = idx + st.extra;
    rp_cycles_replayed = fresh_cycles;
    rp_header_mismatch = None;
    rp_divergences = List.rev st.divs;
  }

exception Fingerprint_mismatch of string

let replay ?(strict = false) (tr : Trace.t) : report =
  let st = { cursor = cursor_of tr; strict; extra = 0; divs = [] } in
  let recorded_fp = tr.t_header.h_fingerprint in
  let gate _monitor fp =
    (* The hard gate: never judge a trace against different metadata. *)
    if not (String.equal fp recorded_fp) then raise (Fingerprint_mismatch fp);
    strict_judge st
  in
  match reexecute ~bundle:None tr st.cursor every_trap ~handover:gate with
  | fresh_cycles, death ->
    Option.iter (push st ~line:0 ~seq:(-1) "run-outcome" "clean exit") death;
    finish st tr ~fresh_cycles
  | exception Fingerprint_mismatch deployed_fp ->
    {
      rp_file = tr.t_file;
      rp_header = tr.t_header;
      rp_traps_recorded = Array.length st.cursor.records;
      rp_traps_replayed = 0;
      rp_cycles_replayed = 0;
      rp_header_mismatch = Some (recorded_fp, deployed_fp);
      rp_divergences = [];
    }

(* ------------------------------------------------------------------ *)
(* Differential replay.

   Where strict replay refuses a trace whose metadata fingerprint has
   moved, differential replay embraces it: re-execute the recorded trap
   stream through a monitor built from *changed* metadata, follow the
   recorded snapshot inputs and verdicts (so control flow stays on the
   recorded path), but judge every trap with the fresh verification
   logic — and report what moved.  Verdict flips (allow->deny and
   deny->allow separately), denial-context changes, tier movements
   (including across the seccomp pre-filter boundary) and cycle deltas
   are the payload, not failures.

   Stream alignment is positional with a (sysno, rip) guard: a
   recorded trap is consumed by the fresh trap at the same position
   only when both agree on the trapping syscall and callsite.  When
   the changed metadata alters the *pre-filter automaton* the streams
   can genuinely differ: a recorded trap the fresh automaton resolves
   at seccomp stage is consumed by the wrapped resolution hook (a
   movement to the prefilter tier), and a fresh trap the recorded run
   resolved (so it is absent from the trace) is judged fresh against a
   synthetic prefilter "before" and then allowed through, because
   that is how the recorded run behaved.  When the fingerprints are
   equal the automata are identical, the guards reduce to pure
   positional matching, and a clean diff (zero flips, zero moves) is
   the regression oracle CI asserts over the golden corpus. *)

type flip = {
  fl_line : int;    (* trace line of the recorded trap; 0 when unmatched *)
  fl_seq : int;     (* recorded trap sequence number; -1 when unmatched *)
  fl_sysno : int;
  fl_sysname : string;
  fl_rip : int64;
  fl_before : string;  (* recorded side of the verdict *)
  fl_after : string;   (* freshly judged side *)
}

type context_move = {
  cm_line : int;
  cm_seq : int;
  cm_sysname : string;
  cm_before : string;  (* recorded denial, "context: detail" *)
  cm_after : string;   (* fresh denial *)
}

type diff_report = {
  dr_file : string;
  dr_header : Trace.header;  (* [h_against] filled with the fresh fingerprint *)
  dr_recorded_fp : string;
  dr_against_fp : string;
  dr_same_metadata : bool;
  dr_traps_recorded : int;
  dr_traps_matched : int;
  dr_moved_to_prefilter : int;
      (* recorded traps the fresh automaton resolved at seccomp stage *)
  dr_fresh_unmatched : int;
      (* fresh traps with no recorded counterpart (prefilter-resolved
         in the recorded run) *)
  dr_unconsumed_recorded : int;
      (* recorded traps the fresh run never delivered *)
  dr_allow_to_deny : flip list;
  dr_deny_to_allow : flip list;
  dr_context_moves : context_move list;
  dr_tier_matrix : (string * string * int) list;
      (* (before, after, count), ascending tier-rank order, zero rows
         omitted; the diagonal counts traps whose tier did not move *)
  dr_tier_moves : int;  (* off-diagonal total *)
  dr_trap_cycle_delta : int;  (* Σ fresh dur - recorded dur, matched traps *)
  dr_cycles_recorded : int;
  dr_cycles_replayed : int;
  dr_run_outcome : string option;  (* Some msg when the replayed run died *)
}

(* A diff is benign when no verdict moved in either direction, no
   denial changed context, and the replayed run survived.  Tier
   movements and cycle deltas are informational: they are the expected
   consequence of metadata that got better or worse, not breakage. *)
let diff_ok r =
  r.dr_allow_to_deny = [] && r.dr_deny_to_allow = []
  && r.dr_context_moves = [] && r.dr_run_outcome = None

(* The in-tree compile pass for the recorded configuration — the base
   whose instrumented program an edited metadata file is restored
   against ([Metadata_io.load (base_bundle tr).inst.iprog]).  Both
   sides hand out their cached bundle; callers only read it. *)
let base_bundle (tr : Trace.t) : Bastion.Api.protected =
  let pre_resolve = tr.t_header.h_pre_resolve in
  match resolve tr with
  | Run (app, defense) ->
    let fs = match defense with Drivers.Bastion_fs _ -> true | _ -> false in
    Drivers.protected_of ~pre_resolve app ~fs
  | Attack (attack, _) -> Runner.compiled_bundle attack ~pre_resolve

type dstate = {
  d_cursor : cursor;
  mutable d_against_fp : string;     (* set at the handover *)
  mutable d_matched : int;
  mutable d_moved_pre : int;
  mutable d_unmatched : int;
  mutable d_ad : flip list;          (* reverse discovery order *)
  mutable d_da : flip list;
  mutable d_ctx : context_move list;
  d_matrix : int array array;        (* 6x6, indexed by tier rank *)
  mutable d_trap_delta : int;
}

let bump_matrix d ~before ~after =
  match (before, after) with
  | Some b, Some a ->
    let b = Event.tier_rank b and a = Event.tier_rank a in
    d.d_matrix.(b).(a) <- d.d_matrix.(b).(a) + 1
  | _ -> ()  (* fetch-only records carry no tier; nothing to place *)

let mkflip ~line (recorded : Event.t) ~before ~after : flip =
  {
    fl_line = line;
    fl_seq = recorded.ev_seq;
    fl_sysno = recorded.ev_sysno;
    fl_sysname = recorded.ev_sysname;
    fl_rip = recorded.ev_rip;
    fl_before = before;
    fl_after = after;
  }

(* Differential replay's rule: a recorded trap stands for the live trap
   only when both agree on the trapping syscall and callsite.  Anywhere
   else the fresh run reads the tracee live, which is the ground truth
   because control flow follows the recorded path. *)
let same_trap : rule =
 fun ~sysno ~rip ev -> ev.Event.ev_sysno = sysno && Int64.equal ev.ev_rip rip

(* Classify the fresh judgement against the consumed recorded trap and
   follow the recorded verdict.  A fresh trap with no recorded
   counterpart was resolved at the seccomp stage in the recorded run:
   its "before" is the prefilter tier and its recorded behaviour is
   allow. *)
let diff_judge d : judge =
 fun consumed fresh _ ->
  match consumed with
  | Some (line, recorded) ->
    d.d_matched <- d.d_matched + 1;
    d.d_trap_delta <- d.d_trap_delta + fresh.ev_dur - recorded.ev_dur;
    bump_matrix d ~before:recorded.ev_tier ~after:fresh.ev_tier;
    (match (recorded.ev_verdict, fresh.ev_verdict) with
    | Event.Allowed, Event.Allowed -> ()
    | Event.Allowed, (Event.Denied _ as v) ->
      d.d_ad <- mkflip ~line recorded ~before:"allowed" ~after:(verdict_str v) :: d.d_ad
    | (Event.Denied _ as v), Event.Allowed ->
      d.d_da <- mkflip ~line recorded ~before:(verdict_str v) ~after:"allowed" :: d.d_da
    | (Event.Denied _ as rv), (Event.Denied _ as fv) ->
      if rv <> fv then
        d.d_ctx <-
          { cm_line = line; cm_seq = recorded.ev_seq;
            cm_sysname = recorded.ev_sysname;
            cm_before = verdict_str rv; cm_after = verdict_str fv }
          :: d.d_ctx);
    recorded_verdict recorded
  | None ->
    d.d_unmatched <- d.d_unmatched + 1;
    bump_matrix d ~before:(Some Event.Tier_prefilter) ~after:fresh.ev_tier;
    (match fresh.ev_verdict with
    | Event.Denied _ as v ->
      d.d_ad <-
        mkflip ~line:0 { fresh with ev_seq = -1 } ~before:"allowed@prefilter"
          ~after:(verdict_str v)
        :: d.d_ad
    | Event.Allowed -> ());
    Kernel.Process.Continue

(* The other side of the seccomp boundary: the fresh automaton resolves
   a trap the recorded run delivered to the full monitor.  Consume the
   recorded trap as a movement to the prefilter tier; a recorded denial
   resolved away is a deny->allow flip. *)
let wrap_resolve d (mon : Bastion.Monitor.t) =
  match Bastion.Monitor.prefilter mon with
  | None -> ()
  | Some fa ->
    let orig = fa.Kernel.Seccomp.fa_on_resolve in
    fa.Kernel.Seccomp.fa_on_resolve <-
      Some
        (fun ~sysno ~rip ->
          (match orig with Some f -> f ~sysno ~rip | None -> ());
          match take d.d_cursor same_trap ~sysno ~rip with
          | Some (line, recorded) ->
            d.d_moved_pre <- d.d_moved_pre + 1;
            bump_matrix d ~before:recorded.ev_tier ~after:(Some Event.Tier_prefilter);
            (match recorded.ev_verdict with
            | Event.Denied _ as v ->
              d.d_da <-
                mkflip ~line recorded ~before:(verdict_str v)
                  ~after:"allowed@prefilter"
                :: d.d_da
            | Event.Allowed -> ())
          | None -> ())

let tier_rank_name r =
  match Event.tier_of_rank r with Some t -> Event.tier_name t | None -> "?"

let diff_finish d (tr : Trace.t) ~fresh_cycles ~run_outcome : diff_report =
  let entries = ref [] in
  let moves = ref 0 in
  for b = 5 downto 0 do
    for a = 5 downto 0 do
      let c = d.d_matrix.(b).(a) in
      if c > 0 then begin
        if b <> a then moves := !moves + c;
        entries := (tier_rank_name b, tier_rank_name a, c) :: !entries
      end
    done
  done;
  let n = Array.length d.d_cursor.records in
  {
    dr_file = tr.t_file;
    dr_header = { tr.t_header with Trace.h_against = Some d.d_against_fp };
    dr_recorded_fp = tr.t_header.h_fingerprint;
    dr_against_fp = d.d_against_fp;
    dr_same_metadata = String.equal d.d_against_fp tr.t_header.h_fingerprint;
    dr_traps_recorded = n;
    dr_traps_matched = d.d_matched;
    dr_moved_to_prefilter = d.d_moved_pre;
    dr_fresh_unmatched = d.d_unmatched;
    dr_unconsumed_recorded = n - d.d_cursor.next;
    dr_allow_to_deny = List.rev d.d_ad;
    dr_deny_to_allow = List.rev d.d_da;
    dr_context_moves = List.rev d.d_ctx;
    dr_tier_matrix = !entries;
    dr_tier_moves = !moves;
    dr_trap_cycle_delta = d.d_trap_delta;
    dr_cycles_recorded = tr.t_header.h_cycles;
    dr_cycles_replayed = fresh_cycles;
    dr_run_outcome = run_outcome;
  }

let diff_replay ?against (tr : Trace.t) : diff_report =
  let d =
    {
      d_cursor = cursor_of tr;
      d_against_fp = "-";
      d_matched = 0;
      d_moved_pre = 0;
      d_unmatched = 0;
      d_ad = [];
      d_da = [];
      d_ctx = [];
      d_matrix = Array.make_matrix 6 6 0;
      d_trap_delta = 0;
    }
  in
  let handover monitor fp =
    d.d_against_fp <- fp;
    (* With identical fingerprints the automata are identical and the
       recorded stream holds exactly the fall-throughs: the boundary
       cannot move, so it is not watched. *)
    if not (String.equal fp tr.t_header.h_fingerprint) then
      Option.iter (wrap_resolve d) monitor;
    diff_judge d
  in
  let fresh_cycles, run_outcome =
    reexecute ~bundle:against tr d.d_cursor same_trap ~handover
  in
  diff_finish d tr ~fresh_cycles ~run_outcome

(* ------------------------------------------------------------------ *)
(* Reporting *)

let divergence_to_json (d : divergence) : Report.Json.t =
  let open Report.Json in
  Obj
    [
      ("line", Num (float_of_int d.dv_line));
      ("seq", Num (float_of_int d.dv_seq));
      ("field", Str d.dv_field);
      ("recorded", Str d.dv_recorded);
      ("replayed", Str d.dv_replayed);
    ]

let report_to_json (r : report) : Report.Json.t =
  let open Report.Json in
  Obj
    ([
      ("file", Str r.rp_file);
      ("header", Trace.header_to_json r.rp_header);
      ("traps_recorded", Num (float_of_int r.rp_traps_recorded));
      ("traps_replayed", Num (float_of_int r.rp_traps_replayed));
      ("cycles_recorded", Num (float_of_int r.rp_header.Trace.h_cycles));
      ("cycles_replayed", Num (float_of_int r.rp_cycles_replayed));
      ("ok", Bool (ok r));
    ]
    @ (match r.rp_header_mismatch with
      | None -> []
      | Some (recorded, deployed) ->
        [ ("header_mismatch",
           Obj [ ("recorded", Str recorded); ("deployed", Str deployed) ]) ])
    @ [ ("divergences", List (List.map divergence_to_json r.rp_divergences)) ])

let kind_str = function
  | Trace.Run { app; defense; scale } -> Printf.sprintf "%s/%s [%s]" app defense scale
  | Trace.Attack { attack_id; config } -> Printf.sprintf "%s under %s" attack_id config

let render (r : report) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "replay %s: %s — %d traps recorded, %d replayed, %d divergence%s\n"
       r.rp_file (kind_str r.rp_header.Trace.h_kind) r.rp_traps_recorded
       r.rp_traps_replayed
       (List.length r.rp_divergences)
       (if List.length r.rp_divergences = 1 then "" else "s"));
  (match r.rp_header_mismatch with
  | None -> ()
  | Some (recorded, deployed) ->
    Buffer.add_string buf
      (Printf.sprintf
         "  %s:1: metadata fingerprint mismatch: recorded %s, deployed %s — \
          stream not judged (use `bastion replay --against` for a \
          differential report)\n"
         r.rp_file recorded deployed));
  List.iter
    (fun d ->
      let where =
        if d.dv_line = 0 then Printf.sprintf "%s: run" r.rp_file
        else Printf.sprintf "%s:%d: trap seq %d" r.rp_file d.dv_line d.dv_seq
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s: %s: recorded %s, replayed %s\n" where d.dv_field
           d.dv_recorded d.dv_replayed))
    r.rp_divergences;
  Buffer.contents buf

let flip_to_json (f : flip) : Report.Json.t =
  let open Report.Json in
  Obj
    [
      ("line", Num (float_of_int f.fl_line));
      ("seq", Num (float_of_int f.fl_seq));
      ("sysno", Num (float_of_int f.fl_sysno));
      ("sysname", Str f.fl_sysname);
      ("rip", Str (Printf.sprintf "0x%Lx" f.fl_rip));
      ("before", Str f.fl_before);
      ("after", Str f.fl_after);
    ]

let context_move_to_json (c : context_move) : Report.Json.t =
  let open Report.Json in
  Obj
    [
      ("line", Num (float_of_int c.cm_line));
      ("seq", Num (float_of_int c.cm_seq));
      ("sysname", Str c.cm_sysname);
      ("before", Str c.cm_before);
      ("after", Str c.cm_after);
    ]

let diff_report_to_json (r : diff_report) : Report.Json.t =
  let open Report.Json in
  Obj
    ([
       ("schema", Str "bastion-diff-replay/1");
       ("file", Str r.dr_file);
       ("header", Trace.header_to_json r.dr_header);
       ("recorded_fingerprint", Str r.dr_recorded_fp);
       ("against_fingerprint", Str r.dr_against_fp);
       ("same_metadata", Bool r.dr_same_metadata);
       ("ok", Bool (diff_ok r));
       ("traps",
        Obj
          [
            ("recorded", Num (float_of_int r.dr_traps_recorded));
            ("matched", Num (float_of_int r.dr_traps_matched));
            ("moved_to_prefilter", Num (float_of_int r.dr_moved_to_prefilter));
            ("fresh_unmatched", Num (float_of_int r.dr_fresh_unmatched));
            ("unconsumed", Num (float_of_int r.dr_unconsumed_recorded));
          ]);
       ("flips",
        Obj
          [
            ("allow_to_deny", List (List.map flip_to_json r.dr_allow_to_deny));
            ("deny_to_allow", List (List.map flip_to_json r.dr_deny_to_allow));
          ]);
       ("context_moves", List (List.map context_move_to_json r.dr_context_moves));
       ("tier_matrix",
        List
          (List.map
             (fun (before, after, count) ->
               Obj
                 [
                   ("before", Str before);
                   ("after", Str after);
                   ("count", Num (float_of_int count));
                 ])
             r.dr_tier_matrix));
       ("tier_moves", Num (float_of_int r.dr_tier_moves));
       ("cycles",
        Obj
          [
            ("recorded", Num (float_of_int r.dr_cycles_recorded));
            ("replayed", Num (float_of_int r.dr_cycles_replayed));
            ("trap_delta", Num (float_of_int r.dr_trap_cycle_delta));
          ]);
     ]
    @ match r.dr_run_outcome with
      | None -> []
      | Some msg -> [ ("run_outcome", Str msg) ])

let render_diff (r : diff_report) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "diff-replay %s: %s — recorded %s, against %s%s\n" r.dr_file
       (kind_str r.dr_header.Trace.h_kind) r.dr_recorded_fp r.dr_against_fp
       (if r.dr_same_metadata then " (metadata unchanged)" else ""));
  Buffer.add_string buf
    (Printf.sprintf
       "  traps: %d recorded, %d matched, %d moved to prefilter, %d fresh \
        unmatched, %d unconsumed\n"
       r.dr_traps_recorded r.dr_traps_matched r.dr_moved_to_prefilter
       r.dr_fresh_unmatched r.dr_unconsumed_recorded);
  Buffer.add_string buf
    (Printf.sprintf
       "  verdict flips: %d allow->deny, %d deny->allow; context moves: %d\n"
       (List.length r.dr_allow_to_deny)
       (List.length r.dr_deny_to_allow)
       (List.length r.dr_context_moves));
  (if r.dr_tier_moves = 0 then
     Buffer.add_string buf "  tiers: unchanged\n"
   else begin
     let moved =
       List.filter_map
         (fun (b, a, c) ->
           if String.equal b a then None
           else Some (Printf.sprintf "%s->%s x%d" b a c))
         r.dr_tier_matrix
     in
     Buffer.add_string buf
       (Printf.sprintf "  tiers: %d moved (%s)\n" r.dr_tier_moves
          (String.concat ", " moved))
   end);
  Buffer.add_string buf
    (Printf.sprintf "  cycles: %d recorded, %d replayed (trap delta %+d)\n"
       r.dr_cycles_recorded r.dr_cycles_replayed r.dr_trap_cycle_delta);
  let flip_line tag (f : flip) =
    let where =
      if f.fl_line = 0 then Printf.sprintf "%s: unmatched" r.dr_file
      else Printf.sprintf "%s:%d: trap seq %d" r.dr_file f.fl_line f.fl_seq
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s: %s %s(%d) at %s: %s -> %s\n" where tag f.fl_sysname
         f.fl_sysno
         (Printf.sprintf "0x%Lx" f.fl_rip)
         f.fl_before f.fl_after)
  in
  List.iter (flip_line "allow->deny") r.dr_allow_to_deny;
  List.iter (flip_line "deny->allow") r.dr_deny_to_allow;
  List.iter
    (fun (c : context_move) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s:%d: trap seq %d: context moved: %s -> %s\n"
           r.dr_file c.cm_line c.cm_seq c.cm_before c.cm_after))
    r.dr_context_moves;
  (match r.dr_run_outcome with
  | None -> ()
  | Some msg ->
    Buffer.add_string buf (Printf.sprintf "  run outcome: %s\n" msg));
  Buffer.contents buf
