(** Load drivers: run an application model under a defense
    configuration and report the paper's metrics.  The defense axis
    reproduces Figure 3's configurations plus the Table 7 rows. *)

type defense =
  | Vanilla
  | Llvm_cfi
  | Cet_only
  | Bastion_ct          (** CET + Call-Type *)
  | Bastion_ct_cf       (** CET + Call-Type + Control-Flow *)
  | Bastion_full        (** CET + all three contexts *)
  | Bastion_fs of Bastion.Monitor.fs_mode
      (** CET + all three contexts + the §11.2 filesystem extension *)

val defense_name : defense -> string
val figure3_defenses : defense list
val table7_defenses : defense list

(** An application model packaged for the drivers. *)
type app = {
  app_name : string;
  app_key : Deployments.id;  (** cache key: the model and every parameter field *)
  prog : Sil.Prog.t Lazy.t;
  setup : Kernel.Process.t -> unit;
  metric : Kernel.Process.t -> Machine.t -> float;
  metric_name : string;
  higher_is_better : bool;
}

val nginx : ?params:Nginx_model.params -> unit -> app
val sqlite : ?params:Sqlite_model.params -> unit -> app
val vsftpd : ?params:Vsftpd_model.params -> unit -> app

(** The app as a {!Deployments} source: its key and its program. *)
val source : app -> Deployments.source

type measurement = {
  m_app : string;
  m_defense : defense;
  m_metric : float;
  m_cycles : int;
  m_traps : int;
  m_syscalls : int;
  m_monitor_init_cycles : int;
  m_process : Kernel.Process.t;
  m_machine : Machine.t;
  m_monitor : Bastion.Monitor.t option;
}

(** A benign run died — a reproduction bug, never expected. *)
exception Benign_run_died of string

(** A session staged up to the brink of execution: booted, runtime
    installed, monitor attached, workload setup done — everything
    {!run} does before [Machine.run].  The replay engine uses the gap
    to swap the monitor's trap source and wrap the tracer hook before
    {!execute} drives the identical measurement path. *)
type prepared = {
  pr_app : app;
  pr_defense : defense;
  pr_machine : Machine.t;
  pr_process : Kernel.Process.t;
  pr_monitor : Bastion.Monitor.t option;
}

(** Stage an app under a defense: boot, wire, attach, setup — stop
    short of execution.  Same optional arguments as {!run}. *)
val prepare :
  ?cost:Machine.Cost.t -> ?trap_cache:bool -> ?pre_resolve:bool ->
  ?taint_cheap_path:bool -> ?prefilter:Kernel.Seccomp.flow_mode ->
  ?bundle:Bastion.Api.protected ->
  ?recorder:Obs.Recorder.t -> app -> defense -> prepared

(** Execute a prepared session and measure it.
    @raise Benign_run_died if the run faults. *)
val execute : prepared -> measurement

(** Run an app under a defense ([execute] of [prepare]).  [cost]
    overrides the machine cost table (e.g.
    {!Machine.Cost.in_kernel_monitor}); [trap_cache] toggles the
    monitor's CT+CF verdict cache (default on), for the fast-path
    ablation; [pre_resolve] enables static pre-resolution of AI slots
    (default off), for the static-analysis ablation; [taint_cheap_path]
    toggles the single-probe verification of rank-untainted slots
    (default on; only observable with [pre_resolve], for the taint-rank
    ablation); [prefilter]
    deploys the syscall-flow pre-filter in the given mode on the
    monitored configurations (tiered resolves eligible traps at seccomp
    cost, standalone models the pre-filter as the *only* defense —
    ignored by the unmonitored baselines); [recorder] wires a
    flight recorder through the monitored configurations (ignored by
    the unmonitored baselines — observation never changes a run's
    cycles or verdicts); [bundle] overrides the compile pass with a
    restored (possibly edited) metadata bundle — the differential
    replay engine's seam; overridden bundles bypass the protect-time
    lint gate on purpose, and the pre-filter spec (when [prefilter] is
    also given) is re-extracted from the override.
    @raise Benign_run_died if the run faults. *)
val run :
  ?cost:Machine.Cost.t -> ?trap_cache:bool -> ?pre_resolve:bool ->
  ?taint_cheap_path:bool -> ?prefilter:Kernel.Seccomp.flow_mode ->
  ?bundle:Bastion.Api.protected ->
  ?recorder:Obs.Recorder.t -> app -> defense -> measurement

(** Relative overhead (%) against a baseline measurement, respecting the
    metric direction. *)
val overhead_pct : baseline:measurement -> measurement -> higher_is_better:bool -> float

(** A sharded multi-tracee run: [tracees] concurrent instances of one
    workload model, sharded over the monitor pool's worker domains. *)
type multi = {
  mm_tracees : measurement array;   (** per-tracee results, tracee order *)
  mm_pool : Bastion_mt.Monitor_pool.stats;
  mm_wall_seconds : float;          (** host wall clock around the pool *)
  mm_serial_cycles : int;           (** Σ per-tracee modelled cycles *)
  mm_makespan_cycles : int;
      (** modelled makespan: the heaviest shard's cycle sum under the
          chosen scheduler's job plan (each shard on its own modelled
          core) *)
  mm_plan : Bastion_mt.Monitor_pool.job_plan;
      (** the deterministic placement behind [mm_makespan_cycles] —
          per-shard cycles, steals and migrations included *)
}

(** Total TRACE stops across the tracees. *)
val sum_traps : multi -> int

(** Run [tracees] instances of [app] under [defense] across [shards]
    worker domains.  Every tracee gets its own session (machine,
    process, runtime, monitor, verdict cache), created and driven
    entirely on its owning shard's domain; [shard_recorders], when
    given, supplies each *shard* its own flight recorder (its tracees
    run serially, so the recorder never crosses a domain).  Per-tracee
    results are byte-identical to a serial [run] loop for every shard
    count *and every scheduler*: a tracee's session never outlives its
    executing domain, so placement cannot change its verdicts or
    cycles.  [scheduler] (default [Static]) picks the pool's placement
    policy; [shard_recorders] requires the static scheduler (lane
    stamping relies on the static pin) and the combination is rejected
    otherwise.  Nothing is warmed before the workers spawn: they fill
    the {!Deployments} cache on first use, under its lock.
    @raise Benign_run_died if any tracee faults (lowest tracee wins). *)
val run_multi :
  ?cost:Machine.Cost.t -> ?trap_cache:bool -> ?pre_resolve:bool ->
  ?prefilter:Kernel.Seccomp.flow_mode ->
  ?queue_capacity:int -> ?batch:int ->
  ?scheduler:Bastion_mt.Monitor_pool.policy ->
  ?shard_recorders:Obs.Recorder.t array ->
  shards:int -> tracees:int -> app -> defense -> multi
