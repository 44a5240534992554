(** The BASTION runtime monitor (§7): traps on sensitive syscall
    invocations (seccomp TRACE) and verifies the Call-Type,
    Control-Flow and Argument-Integrity contexts against compiler
    metadata before letting the call proceed.  A violation kills the
    protected application. *)

module Ptrace = Kernel.Ptrace
module Process = Kernel.Process
module Syscalls = Kernel.Syscalls

(** Which contexts are enforced. *)
type contexts = { ct : bool; cf : bool; ai : bool }

val all_contexts : contexts
val no_contexts : contexts

(** How the §11.2 filesystem-syscall extension is deployed (the Table 7
    checkpoints). *)
type fs_mode =
  | Fs_off          (** main evaluation: fs syscalls simply allowed *)
  | Fs_hook_only    (** row 1: seccomp evaluates, no trap *)
  | Fs_fetch_only   (** row 2: trap + fetch process state, no checking *)
  | Fs_full         (** row 3: trap + full context checking *)

type config = {
  contexts : contexts;
  fs_mode : fs_mode;
  sockaddr_fastpath : bool;
      (** the specialised accept/accept4 sockaddr verification (§9.2) *)
  trap_cache : bool;
      (** the trap fast path's CT+CF verdict cache; AI always re-runs *)
  taint_cheap_path : bool;
      (** verify ranked-untainted AI slots through the single-probe
          cheap recipe (identical denial semantics, half the lookups);
          inert on bundles without slot ranks *)
}

val default_config : config

(** One recorded denial: syscall, violated context, detail. *)
type denial = { d_sysno : int; d_context : string; d_detail : string }

(** Where a trap's register file and stack snapshot come from.  The
    {!live_source} reads the stopped tracee over ptrace; the replay
    engine substitutes a source handing back *recorded* inputs (which
    charge identical modelled costs via [Ptrace.inject_*]), so the same
    verification code re-judges a trace offline.  [span_words] is the
    per-function slot-span length {!Ptrace.snapshot} takes. *)
type trap_source = {
  ts_regs : Ptrace.t -> Ptrace.regs;
  ts_snapshot : Ptrace.t -> span_words:int array -> Ptrace.snapshot;
}

val live_source : trap_source

(** The deployed metadata decoded into arrays the per-trap checks
    index by code point and by function, each function's verdict-cache
    name hash included.  It does not depend on the monitor
    configuration and is never written after {!decode}, so one image
    serves every session of a deployment, on any domain. *)
type image

(** Decode a deployment's metadata against its code image (once per
    deployment: {!Api.deploy} keeps the result). *)
val decode : Metadata.t -> Machine.Layout.t -> image

type t = {
  meta : Metadata.t;
  image : image;  (** [meta]'s, shared with the deployment *)
  runtime : Runtime.t;
  config : config;
  machine : Machine.t;
  cache : Verdict_cache.t;      (** the CT+CF verdict cache *)
  mutable recorder : Obs.Recorder.t option;
      (** the flight recorder; observation never charges cycles *)
  mutable source : trap_source;
      (** trap-input source: live ptrace by default, recorded for replay *)
  mutable prefilter : Kernel.Seccomp.flow_automaton option;
      (** the deployed syscall-flow pre-filter, if any *)
  mutable traps_checked : int;
  mutable init_cycles : int;    (** metadata-loading cost (§9.2) *)
  mutable pre_resolved_hits : int;
      (** AI slots verified against a static constant (no shadow probe) *)
  mutable ctx_hits : int;
      (** AI slots verified against a per-caller constant (no probe) *)
  mutable ai_tainted : int;
      (** ranked slot verifications that took the full path (tainted) *)
  mutable ai_untainted : int;
      (** ranked slot verifications eligible for the cheap path *)
  mutable denials : denial list;
  mutable cur_tier : int;
      (** deepest {!Obs.Event.tier} rank engaged by the trap in flight
          (-1: none yet) *)
  mutable depth_total : int;
  mutable depth_min : int;
  mutable depth_max : int;
  mutable depth_samples : int;
}

exception Deny of string * string

(** A monitor over [meta] and its decoded [image] (which must be
    [decode meta machine.layout]); only [config] and the counters are
    its own. *)
val create :
  ?recorder:Obs.Recorder.t ->
  meta:Metadata.t -> image:image -> runtime:Runtime.t -> config:config -> Machine.t -> t

val set_recorder : t -> Obs.Recorder.t option -> unit

(** Swap the trap-input source (replay injection). *)
val set_source : t -> trap_source -> unit

(** Mirror the pipeline's legacy counters ([Ptrace], the verdict cache,
    the shadow table, the monitor and machine totals) into a metrics
    registry as sampled probes; the legacy accessors stay
    authoritative. *)
val register_probes : t -> Ptrace.t -> Obs.Metrics.t -> unit

(** Install the seccomp filter of §7.1 (ALLOW used non-sensitive
    syscalls, KILL not-callable ones (§11.3), TRACE the rest; unknown
    numbers default to KILL) and the TRACE hook, which runs the full
    check (CT, then CF, then AI) or, for Table 7 row 2, only fetches
    the process state; with a recorder present, also
    {!register_probes} into its registry. *)
val attach : t -> Process.t -> unit

(** Deploy-time classification, from a deployment's metadata, of the
    AI-checked argument positions of the pre-filter node at [addr]
    invoking [sysno]: [`Pin c] a statically-known constant (pointer
    pins must be NULL or rodata), [`Scalar] a dynamic register-visible
    value, [`Pointer] a checked pointer seccomp can never verify;
    [None] when no metadata binds that syscall at the callsite. *)
val prefilter_site_info :
  Metadata.t ->
  addr:int64 ->
  sysno:int option ->
  (int * [ `Pin of int64 | `Scalar | `Pointer ]) list option

(** Install a session's syscall-flow automaton on this monitor and the
    process's seccomp filter (the tiered entry point: calls the
    automaton resolves never reach the monitor).
    @raise Invalid_argument if the process has no filter yet. *)
val install_prefilter : t -> Process.t -> Kernel.Seccomp.flow_automaton -> unit

val prefilter : t -> Kernel.Seccomp.flow_automaton option

(** Per-tier resolution counters: (resolved at the pre-filter tier,
    fell through to the full path, standalone-mode kills). *)
val prefilter_stats : t -> int * int * int

val prefilter_resolved : t -> int

(** Denials in chronological order. *)
val denials : t -> denial list

(** {!Metadata.fingerprint} of the deployed metadata, rendered against
    this monitor's machine (once per metadata). *)
val fingerprint : t -> string

(** Verdict-cache statistics of the trap fast path:
    (hits, misses, hit rate). *)
val cache_stats : t -> int * int * float

(** AI slots verified against a pre-resolved static constant (the
    shadow probes those slots would have cost are skipped). *)
val pre_resolved_hits : t -> int

(** AI slots verified against a per-caller (1-context) constant. *)
val ctx_resolved_hits : t -> int

(** Ranked-slot verification counts: (tainted — full binding+shadow
    path, untainted — cheap-path eligible). *)
val ai_rank_stats : t -> int * int

(** §9.2 call-depth statistics over verified traps: (min, mean, max). *)
val depth_stats : t -> (int * float * int) option
