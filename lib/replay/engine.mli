(** The replay engine: offline re-verification of a recorded trap
    stream against the real monitor.

    A BASTION verdict is a pure function of the deployed metadata and
    the per-trap snapshot, and the machine model is deterministic — so
    replay is a deterministic re-execution of the recorded
    configuration in which every trap's register file and stack
    snapshot are *injected from the trace* (via the monitor's
    {!Bastion.Monitor.trap_source}, charging identical modelled costs)
    instead of read from the tracee.  The monitor re-judges each trap
    with its real verification path; the engine compares the fresh
    event against the recorded one field by field and reports
    divergences with trace line numbers.  Control flow always follows
    the *recorded* verdict, so one corrupted record cannot derail the
    comparison of everything after it.

    The metadata fingerprint is a hard gate for *strict* replay: a
    trace recorded against a different bundle is reported as a header
    mismatch and never judged.  {!diff_replay} is the other mode: it
    embraces a changed bundle and reports what moved — verdict flips,
    denial-context changes, tier movements, cycle deltas.  Both modes
    drive one re-execution core; strict replay injects every recorded
    trap in order, differential replay only where the recorded
    (sysno, rip) is the live trap's.

    Every entry point refuses a header it cannot re-execute —
    unknown keys, or an undefended attack run, which has no monitor —
    with {!Trace.Malformed} at line 1, before running anything. *)

(** {1 Name registries}

    The header stores workloads, defenses and attack configurations as
    short stable keys; recording, replay and the CLI resolve them
    through the same tables so every side always builds the same run. *)

(** Every defense key with its configuration, in listing order. *)
val defenses : (string * Workloads.Drivers.defense) list

val defense_of_key : string -> Workloads.Drivers.defense option

(** Every attack-configuration key with its configuration. *)
val configs : (string * Attacks.Runner.config) list

(** Known workload scales: ["default"] (the paper-shaped runs) and
    ["small"] (a few hundred traps — the golden-corpus scale). *)
val scales : string list

(** Known application names ([nginx], [sqlite], [vsftpd]). *)
val apps : string list

val app_of : name:string -> scale:string -> (Workloads.Drivers.app, string) result
val attack_of : id:string -> (Attacks.Attack.t, string) result

(** {1 Recording} *)

(** Ring capacity of a recording flight recorder: ample headroom for a
    default-scale run, so a recorded stream is never truncated. *)
val recording_ring_capacity : int

(** Write [recorder]'s stream to [path] as a replayable run trace: the
    header records [app], [scale], the measurement's defense and
    monitor fingerprint, and the monitor knobs the run used.  Returns
    the header written.  [recorder] must have traced the whole run
    with {!recording_ring_capacity}.
    @raise Failure if the ring dropped events (the trace would not
    replay); nothing is written then. *)
val write_run :
  recorder:Obs.Recorder.t -> path:string -> app:string -> scale:string ->
  trap_cache:bool -> pre_resolve:bool ->
  prefilter:Kernel.Seccomp.flow_mode option ->
  Workloads.Drivers.measurement -> Trace.header

(** Run a workload with the flight recorder armed and write the trace
    (header + JSONL stream) to [path] through {!write_run}, the writer
    the CLI's [run --audit] sink uses too; returns the live measurement.
    @raise Trace.Malformed (line 1) on an unknown app/scale key.
    @raise Failure if the ring dropped events. *)
val record_run :
  ?trap_cache:bool -> ?pre_resolve:bool ->
  ?prefilter:Kernel.Seccomp.flow_mode ->
  app:string -> scale:string -> defense:Workloads.Drivers.defense ->
  path:string -> unit -> Workloads.Drivers.measurement

(** Run one catalog attack under one configuration, recording to
    [path] with the same header builder and writer; returns the live
    outcome.  Undefended runs carry no monitor and cannot be recorded.
    @raise Trace.Malformed (line 1) on an unknown attack id, or if
    [config] is [Undefended]. *)
val record_attack :
  ?trap_cache:bool -> ?pre_resolve:bool ->
  ?prefilter:Kernel.Seccomp.flow_mode ->
  attack_id:string -> config:Attacks.Runner.config ->
  path:string -> unit -> Attacks.Runner.outcome

(** {1 Replay} *)

(** One field-level disagreement between the recorded stream and the
    fresh replay.  [dv_line] is the trace line (1-based; 0 for
    run-level divergences such as a missing trap or a cycle-total
    mismatch), [dv_seq] the trap sequence number (-1 for run-level). *)
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
  rp_traps_replayed : int;    (** traps the fresh run delivered *)
  rp_cycles_replayed : int;   (** final modelled cycle total of the replay *)
  rp_header_mismatch : (string * string) option;
      (** (recorded, deployed) metadata fingerprints when the hard gate
          refused to judge the stream; a run-level condition with its
          own report field — never a synthetic divergence row *)
  rp_divergences : divergence list;  (** in discovery order *)
}

(** No header mismatch and no divergences. *)
val ok : report -> bool

(** Re-run the recorded configuration with recorded snapshots injected
    and compare trap by trap.  The default comparison covers the
    verdict-relevant fields and the whole-trap cycle attribution
    (kind, syscall, rip, verdict + denial context/detail, stack depth,
    trap cycles) plus the run-level totals (trap count, final cycle
    total).  [strict] additionally compares every recorded field:
    sequence number, trap-entry cycles, per-phase spans, verdict-cache
    disposition and the ptrace/shadow traffic counters.
    @raise Trace.Malformed (line 1) on unknown header keys or an
    undefended attack trace. *)
val replay : ?strict:bool -> Trace.t -> report

val report_to_json : report -> Report.Json.t

(** Human-readable report: a summary line plus one "file:line:" line
    per divergence. *)
val render : report -> string

(** {1 Differential replay}

    Re-execute a recorded trap stream through a monitor built from
    *changed* metadata: recorded snapshot inputs are injected wherever
    the recorded trap demonstrably is the live trap, control flow
    always follows the recorded behaviour, but every trap is judged by
    the fresh verification logic — and the report says what moved.
    With identical fingerprints a clean diff (zero flips, zero
    movements) is the golden corpus's regression oracle. *)

(** One verdict flip.  [fl_line]/[fl_seq] locate the recorded trap
    (0 / -1 for a fresh trap with no recorded counterpart — one the
    recorded run resolved at the seccomp pre-filter). *)
type flip = {
  fl_line : int;
  fl_seq : int;
  fl_sysno : int;
  fl_sysname : string;
  fl_rip : int64;
  fl_before : string;  (** recorded side of the verdict *)
  fl_after : string;   (** freshly judged side *)
}

(** Both sides denied, but the denial context or detail moved. *)
type context_move = {
  cm_line : int;
  cm_seq : int;
  cm_sysname : string;
  cm_before : string;
  cm_after : string;
}

type diff_report = {
  dr_file : string;
  dr_header : Trace.header;
      (** the recorded header with [h_against] set to the fresh
          bundle's fingerprint *)
  dr_recorded_fp : string;
  dr_against_fp : string;
  dr_same_metadata : bool;   (** fingerprints equal (the CI case) *)
  dr_traps_recorded : int;
  dr_traps_matched : int;
  dr_moved_to_prefilter : int;
      (** recorded traps the fresh automaton resolved at seccomp stage *)
  dr_fresh_unmatched : int;
      (** fresh traps absent from the recording (prefilter-resolved in
          the recorded run) *)
  dr_unconsumed_recorded : int;
      (** recorded traps the fresh run never delivered *)
  dr_allow_to_deny : flip list;   (** in stream order *)
  dr_deny_to_allow : flip list;
  dr_context_moves : context_move list;
  dr_tier_matrix : (string * string * int) list;
      (** (before, after, count) in ascending tier-rank order, zero
          cells omitted; the diagonal counts unmoved traps *)
  dr_tier_moves : int;            (** off-diagonal total *)
  dr_trap_cycle_delta : int;
      (** Σ fresh - recorded per-trap cycles over matched traps *)
  dr_cycles_recorded : int;
  dr_cycles_replayed : int;
  dr_run_outcome : string option;  (** [Some msg] if the replay died *)
}

(** Benign diff: no flips, no context moves, clean run outcome.  Tier
    movements and cycle deltas are informational, not failures. *)
val diff_ok : diff_report -> bool

(** The in-tree compile pass for the recorded configuration — the base
    whose instrumented program an edited metadata file restores
    against: [Metadata_io.load ~file (base_bundle tr).inst.iprog].
    The bundle is the drivers' or the attack runner's cached one: read
    it, never mutate it.
    @raise Trace.Malformed (line 1) on unknown header keys or an
    undefended attack trace. *)
val base_bundle : Trace.t -> Bastion.Api.protected

(** Diff-replay [tr] against [against] (default: the in-tree bundle
    for the recorded configuration, rebuilt from the current compile
    pass — the regression-oracle mode).
    @raise Trace.Malformed (line 1) on unknown header keys or an
    undefended attack trace. *)
val diff_replay : ?against:Bastion.Api.protected -> Trace.t -> diff_report

(** Deterministic machine-readable report
    ([{"schema": "bastion-diff-replay/1", ...}]). *)
val diff_report_to_json : diff_report -> Report.Json.t

(** Human-readable "what moved" summary. *)
val render_diff : diff_report -> string
