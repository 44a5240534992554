(* Load drivers: run an application model under a chosen defense
   configuration and report the paper's metrics.

   The defense axis reproduces Figure 3's configurations (vanilla, LLVM
   CFI, CET, CET+CT, CET+CT+CF, CET+CT+CF+AI) plus the Table 7
   filesystem-extension rows. *)

type defense =
  | Vanilla
  | Llvm_cfi
  | Cet_only
  | Bastion_ct          (** CET + Call-Type *)
  | Bastion_ct_cf       (** CET + Call-Type + Control-Flow *)
  | Bastion_full        (** CET + all three contexts *)
  | Bastion_fs of Bastion.Monitor.fs_mode
      (** CET + all three contexts + §11.2 filesystem extension *)

let defense_name = function
  | Vanilla -> "Vanilla"
  | Llvm_cfi -> "LLVM CFI"
  | Cet_only -> "CET"
  | Bastion_ct -> "CET+CT"
  | Bastion_ct_cf -> "CET+CT+CF"
  | Bastion_full -> "CET+CT+CF+AI"
  | Bastion_fs Bastion.Monitor.Fs_hook_only -> "Bastion+fs (seccomp hook only)"
  | Bastion_fs Bastion.Monitor.Fs_fetch_only -> "Bastion+fs (fetch process state)"
  | Bastion_fs Bastion.Monitor.Fs_full -> "Bastion+fs (full context checking)"
  | Bastion_fs Bastion.Monitor.Fs_off -> "Bastion+fs (off)"

let figure3_defenses =
  [ Vanilla; Llvm_cfi; Cet_only; Bastion_ct; Bastion_ct_cf; Bastion_full ]

let table7_defenses =
  [
    Bastion_fs Bastion.Monitor.Fs_hook_only;
    Bastion_fs Bastion.Monitor.Fs_fetch_only;
    Bastion_fs Bastion.Monitor.Fs_full;
  ]

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

let nginx ?(params = Nginx_model.default) () =
  {
    app_name = "NGINX";
    app_key = Deployments.Nginx params;
    prog = lazy (Nginx_model.build params);
    setup = Nginx_model.setup params;
    metric = Nginx_model.throughput_mb_s;
    metric_name = "MB/sec";
    higher_is_better = true;
  }

let sqlite ?(params = Sqlite_model.default) () =
  {
    app_name = "SQLite";
    app_key = Deployments.Sqlite params;
    prog = lazy (Sqlite_model.build params);
    setup = Sqlite_model.setup params;
    metric = Sqlite_model.notpm;
    metric_name = "NOTPM";
    higher_is_better = true;
  }

let vsftpd ?(params = Vsftpd_model.default) () =
  {
    app_name = "vsftpd";
    app_key = Deployments.Vsftpd params;
    prog = lazy (Vsftpd_model.build params);
    setup = Vsftpd_model.setup params;
    metric = Vsftpd_model.seconds_per_download params;
    metric_name = "ms/download";
    higher_is_better = false;
  }

let source (app : app) = { Deployments.id = app.app_key; prog = app.prog }

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

exception Benign_run_died of string

(* A session staged up to the brink of execution: everything [run] does
   before [Machine.run].  Splitting here lets the replay engine reach
   in between boot and execution — swap the monitor's trap source,
   wrap the tracer hook — and then drive the identical measurement
   path. *)
type prepared = {
  pr_app : app;
  pr_defense : defense;
  pr_machine : Machine.t;
  pr_process : Kernel.Process.t;
  pr_monitor : Bastion.Monitor.t option;
}

let prepare ?(cost = Machine.Cost.default) ?(trap_cache = true) ?(pre_resolve = false)
    ?(taint_cheap_path = true) ?prefilter ?bundle ?recorder (app : app)
    (defense : defense) : prepared =
  let machine_config cet = { Machine.default_config with cet; cost } in
  (* The pre-filter knob, like [bundle], acts only on the monitored
     configurations: the unmonitored baselines have no filter to
     extend. *)
  let monitored ~fs monitor_config =
    let s =
      Deployments.stage ?bundle ?recorder ?prefilter ~machine_config:(machine_config true)
        ~monitor_config (source app) ~fs ~pre_resolve
    in
    (s.machine, s.process, Some s.monitor)
  in
  let machine, process, monitor =
    match defense with
    | Vanilla | Llvm_cfi | Cet_only ->
      let prog = Deployments.program (source app) in
      let m, p =
        Bastion.Api.launch_unprotected
          ~machine_config:(machine_config (defense = Cet_only)) prog
      in
      if defense = Llvm_cfi then
        Defenses.Llvm_cfi.install (Defenses.Llvm_cfi.build prog) m;
      (m, p, None)
    | Bastion_ct | Bastion_ct_cf | Bastion_full ->
      let contexts =
        match defense with
        | Bastion_ct -> { Bastion.Monitor.ct = true; cf = false; ai = false }
        | Bastion_ct_cf -> { Bastion.Monitor.ct = true; cf = true; ai = false }
        | _ -> Bastion.Monitor.all_contexts
      in
      monitored ~fs:false
        { Bastion.Monitor.default_config with contexts; trap_cache; taint_cheap_path }
    | Bastion_fs mode ->
      monitored ~fs:true
        { Bastion.Monitor.default_config with fs_mode = mode; trap_cache;
          taint_cheap_path }
  in
  app.setup process;
  { pr_app = app; pr_defense = defense; pr_machine = machine;
    pr_process = process; pr_monitor = monitor }

let execute (p : prepared) : measurement =
  let { pr_app = app; pr_defense = defense; pr_machine = machine;
        pr_process = process; pr_monitor = monitor } = p in
  (match Machine.run machine with
  | Machine.Exited _ -> ()
  | Machine.Faulted f ->
    raise
      (Benign_run_died
         (Printf.sprintf "%s under %s: %s" app.app_name (defense_name defense)
            (Machine.fault_to_string f))));
  {
    m_app = app.app_name;
    m_defense = defense;
    m_metric = app.metric process machine;
    m_cycles = machine.stats.cycles;
    m_traps = process.trap_count;
    m_syscalls = machine.stats.syscalls;
    m_monitor_init_cycles =
      (match monitor with Some m -> m.Bastion.Monitor.init_cycles | None -> 0);
    m_process = process;
    m_machine = machine;
    m_monitor = monitor;
  }

let run ?cost ?trap_cache ?pre_resolve ?taint_cheap_path ?prefilter ?bundle
    ?recorder (app : app) (defense : defense) : measurement =
  execute
    (prepare ?cost ?trap_cache ?pre_resolve ?taint_cheap_path ?prefilter
       ?bundle ?recorder app defense)

(** Relative overhead (in %) of a measurement against a baseline,
    respecting the metric's direction. *)
let overhead_pct ~(baseline : measurement) (m : measurement) ~higher_is_better =
  if higher_is_better then (baseline.m_metric -. m.m_metric) /. baseline.m_metric *. 100.0
  else (m.m_metric -. baseline.m_metric) /. baseline.m_metric *. 100.0

(* ------------------------------------------------------------------ *)
(* The multi-tracee driver                                             *)

module Pool = Bastion_mt.Monitor_pool

type multi = {
  mm_tracees : measurement array;
  mm_pool : Pool.stats;
  mm_wall_seconds : float;
  mm_serial_cycles : int;
  mm_makespan_cycles : int;
  mm_plan : Pool.job_plan;
}

let sum_traps (m : multi) =
  Array.fold_left (fun acc t -> acc + t.m_traps) 0 m.mm_tracees

let run_multi ?cost ?trap_cache ?pre_resolve ?prefilter ?queue_capacity ?batch
    ?(scheduler = Pool.Static) ?shard_recorders ~shards ~tracees (app : app)
    (defense : defense) : multi =
  if tracees < 1 then invalid_arg "Drivers.run_multi: tracees must be >= 1";
  (match shard_recorders with
  | Some rs when Array.length rs <> shards ->
    invalid_arg "Drivers.run_multi: shard_recorders must have one slot per shard"
  | _ -> ());
  (* A shard recorder's lane stamping relies on the static pin (its
     tracees run serially on its own domain); under stealing a tracee
     may execute anywhere, so the combination is rejected rather than
     silently racy. *)
  (match (shard_recorders, scheduler) with
  | Some _, Pool.Steal ->
    invalid_arg
      "Drivers.run_multi: shard_recorders requires the static scheduler"
  | _ -> ());
  let config = Pool.config ?queue_capacity ?batch ~policy:scheduler ~shards () in
  let job tracee () =
    let recorder =
      match shard_recorders with
      | None -> None
      | Some rs ->
        let shard = Pool.shard_of_tracee ~shards tracee in
        let r = rs.(shard) in
        (* The job runs on its shard's own domain and jobs within a
           shard are serial, so stamping the shared shard recorder's
           lane per tracee is race-free. *)
        Obs.Recorder.set_lane r ~shard ~tracee;
        Some r
    in
    run ?cost ?trap_cache ?pre_resolve ?prefilter ?recorder app defense
  in
  let t0 = Unix.gettimeofday () in
  let results, pool = Pool.run_tracees ~config (Array.init tracees job) in
  let wall = Unix.gettimeofday () -. t0 in
  (* Modelled makespan comes from the deterministic job plan over the
     measured per-tracee cycles — the deployment where every shard has
     its own core and placement follows the chosen policy.  For
     [Static] this is exactly the old group-by-home-shard maximum. *)
  let plan =
    Pool.plan_jobs ~policy:scheduler ~shards
      (Array.map (fun m -> m.m_cycles) results)
  in
  {
    mm_tracees = results;
    mm_pool = pool;
    mm_wall_seconds = wall;
    mm_serial_cycles = Array.fold_left (fun acc m -> acc + m.m_cycles) 0 results;
    mm_makespan_cycles = plan.Pool.jp_makespan;
    mm_plan = plan;
  }
