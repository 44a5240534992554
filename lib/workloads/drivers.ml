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
  app_key : string;  (** cache key: name + parameter fingerprint *)
  prog : Sil.Prog.t Lazy.t;
  setup : Kernel.Process.t -> unit;
  metric : Kernel.Process.t -> Machine.t -> float;
  metric_name : string;
  higher_is_better : bool;
}

let nginx ?(params = Nginx_model.default) () =
  {
    app_name = "NGINX";
    app_key = Printf.sprintf "NGINX-%d" (Hashtbl.hash params);
    prog = lazy (Nginx_model.build params);
    setup = Nginx_model.setup params;
    metric = Nginx_model.throughput_mb_s;
    metric_name = "MB/sec";
    higher_is_better = true;
  }

let sqlite ?(params = Sqlite_model.default) () =
  {
    app_name = "SQLite";
    app_key = Printf.sprintf "SQLite-%d" (Hashtbl.hash params);
    prog = lazy (Sqlite_model.build params);
    setup = Sqlite_model.setup params;
    metric = Sqlite_model.notpm;
    metric_name = "NOTPM";
    higher_is_better = true;
  }

let vsftpd ?(params = Vsftpd_model.default) () =
  {
    app_name = "vsftpd";
    app_key = Printf.sprintf "vsftpd-%d" (Hashtbl.hash params);
    prog = lazy (Vsftpd_model.build params);
    setup = Vsftpd_model.setup params;
    metric = Vsftpd_model.seconds_per_download params;
    metric_name = "ms/download";
    higher_is_better = false;
  }

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

(* Cache of protected programs: the compile pass is shared between the
   CT / CT+CF / full configurations of the same app. *)
let protect_cache : (string, Bastion.Api.protected) Hashtbl.t = Hashtbl.create 8
let protect_fs_cache : (string, Bastion.Api.protected) Hashtbl.t = Hashtbl.create 8

let preresolve_cache : (string, Bastion.Api.protected) Hashtbl.t = Hashtbl.create 8

(* The drivers fail fast on unsound metadata: every protect pass below
   runs the registered lint validator (ROADMAP "linter as a library
   gate").  Registration happens here, at module initialisation, so
   linking the workloads library is enough to arm the gate. *)
let () = Bastion_analysis.Lint.register_api_validator ()

let protected_of ?(pre_resolve = false) (app : app) ~fs =
  let cache = if fs then protect_fs_cache else protect_cache in
  let base =
    match Hashtbl.find_opt cache app.app_key with
    | Some p -> p
    | None ->
      let p =
        Bastion.Api.protect ~protect_filesystem:fs ~validate:true
          (Lazy.force app.prog)
      in
      Hashtbl.replace cache app.app_key p;
      p
  in
  if not pre_resolve then base
  else begin
    (* Enrichment returns a fresh bundle, so the shared cache entry
       above is never mutated. *)
    let key = app.app_key ^ if fs then "+fs" else "" in
    match Hashtbl.find_opt preresolve_cache key with
    | Some p -> p
    | None ->
      let p = Bastion_analysis.Preresolve.enrich base in
      Hashtbl.replace preresolve_cache key p;
      p
  end

(* Each cached bundle's deployment: its post-layout metadata, built
   once.  Every monitored [prepare] without a [bundle] override starts
   its session from it. *)
let deployment_cache : (string, Bastion.Api.deployment) Hashtbl.t = Hashtbl.create 8

let deployment_of ?(pre_resolve = false) (app : app) ~fs =
  let key =
    app.app_key ^ (if fs then "+fs" else "") ^ if pre_resolve then "+pre" else ""
  in
  match Hashtbl.find_opt deployment_cache key with
  | Some d -> d
  | None ->
    let d = Bastion.Api.deploy (protected_of ~pre_resolve app ~fs) in
    Hashtbl.replace deployment_cache key d;
    d

(* The syscall-flow digraph is a pure function of the instrumented
   program, so it is shared across defense configurations (and across
   pre-resolution, which only changes deploy-time constants). *)
let flow_spec_cache : (string, Defenses.Flow_prefilter.spec) Hashtbl.t =
  Hashtbl.create 8

let flow_spec_of (app : app) ~fs =
  let key = app.app_key ^ if fs then "+fs" else "" in
  match Hashtbl.find_opt flow_spec_cache key with
  | Some s -> s
  | None ->
    let s = Bastion_analysis.Flowgraph.extract (protected_of app ~fs) in
    Hashtbl.replace flow_spec_cache key s;
    s

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
  (* [bundle] overrides the compile pass entirely: the differential
     replay engine deploys a restored (possibly hand-edited) metadata
     bundle through the exact driver path a recording used.  Overridden
     bundles bypass the protect-time lint gate on purpose — judging
     what a metadata edit changes requires deploying it. *)
  let bundle_for ~fs =
    match bundle with Some b -> b | None -> protected_of ~pre_resolve app ~fs
  in
  let launch ~fs monitor_config =
    let machine_config = machine_config true in
    match bundle with
    | Some b -> Bastion.Api.launch ~machine_config ~monitor_config ?recorder b ()
    | None ->
      Bastion.Api.start ~machine_config ~monitor_config ?recorder
        (deployment_of ~pre_resolve app ~fs) ()
  in
  let machine, process, monitor =
    match defense with
    | Vanilla ->
      let m, p =
        Bastion.Api.launch_unprotected ~machine_config:(machine_config false)
          (Lazy.force app.prog)
      in
      (m, p, None)
    | Llvm_cfi ->
      let prog = Lazy.force app.prog in
      let m, p =
        Bastion.Api.launch_unprotected ~machine_config:(machine_config false) prog
      in
      Defenses.Llvm_cfi.install (Defenses.Llvm_cfi.build prog) m;
      (m, p, None)
    | Cet_only ->
      let m, p =
        Bastion.Api.launch_unprotected ~machine_config:(machine_config true)
          (Lazy.force app.prog)
      in
      (m, p, None)
    | Bastion_ct | Bastion_ct_cf | Bastion_full ->
      let contexts =
        match defense with
        | Bastion_ct -> { Bastion.Monitor.ct = true; cf = false; ai = false }
        | Bastion_ct_cf -> { Bastion.Monitor.ct = true; cf = true; ai = false }
        | _ -> Bastion.Monitor.all_contexts
      in
      let session =
        launch ~fs:false
          { Bastion.Monitor.default_config with contexts; trap_cache; taint_cheap_path }
      in
      (session.machine, session.process, Some session.monitor)
    | Bastion_fs mode ->
      let session =
        launch ~fs:true
          { Bastion.Monitor.default_config with fs_mode = mode; trap_cache;
            taint_cheap_path }
      in
      (session.machine, session.process, Some session.monitor)
  in
  (* Deploy the syscall-flow pre-filter, if requested, on top of the
     attached monitor (non-BASTION defenses have no filter to extend:
     the knob is a no-op there, like on a vanilla run). *)
  (match (prefilter, monitor) with
  | Some mode, Some mon ->
    let fs = match defense with Bastion_fs _ -> true | _ -> false in
    (* With an overridden bundle, the automaton must be extracted from
       *that* metadata — the cached spec belongs to the in-tree pass. *)
    let spec =
      match bundle with
      | Some b -> Bastion_analysis.Flowgraph.extract b
      | None -> flow_spec_of app ~fs
    in
    ignore
      (Bastion_analysis.Flowgraph.attach ~spec ~mode (bundle_for ~fs)
         ~monitor:mon ~process)
  | _ -> ());
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
  (* Warm the shared compile-pass and deployment caches on this domain
     before any worker spawns: afterwards the worker domains only ever
     *read* the caches and the (already forced) lazy programs. *)
  let warm ~fs =
    ignore (deployment_of ?pre_resolve app ~fs);
    if prefilter <> None then ignore (flow_spec_of app ~fs)
  in
  (match defense with
  | Vanilla | Llvm_cfi | Cet_only -> ignore (Lazy.force app.prog)
  | Bastion_ct | Bastion_ct_cf | Bastion_full -> warm ~fs:false
  | Bastion_fs _ -> warm ~fs:true);
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
