(* Attack execution and context attribution.

   Each attack runs under five configurations:
   - undefended (sanity: the exploit must actually work),
   - each context enabled alone (Table 6 attribution),
   - all three contexts (the deployment configuration: must block).

   ROP-era machines run without CET (§10.1 evaluates BASTION's ROP
   defense in CET's absence). *)

type config = Undefended | Only_ct | Only_cf | Only_ai | Full_bastion

let config_name = function
  | Undefended -> "undefended"
  | Only_ct -> "CT"
  | Only_cf -> "CF"
  | Only_ai -> "AI"
  | Full_bastion -> "CT+CF+AI"

type outcome =
  | Succeeded             (** the goal syscall executed with attacker values *)
  | Blocked of Machine.fault
  | Inert                 (** program finished without the attack firing *)

let outcome_name = function
  | Succeeded -> "SUCCEEDED"
  | Blocked f -> "blocked: " ^ Machine.fault_to_string f
  | Inert -> "inert (goal never reached, no kill)"

let contexts_of = function
  | Only_ct -> { Bastion.Monitor.ct = true; cf = false; ai = false }
  | Only_cf -> { Bastion.Monitor.ct = false; cf = true; ai = false }
  | Only_ai -> { Bastion.Monitor.ct = false; cf = false; ai = true }
  | Full_bastion | Undefended -> Bastion.Monitor.all_contexts

(* A hijacked gadget may spin in a loop whose counter is attacker
   stack garbage; bound the run and end it as soon as the goal fires. *)
let attack_fuel = 20_000_000

(* ------------------------------------------------------------------ *)
(* The compile cache.

   A victim is compiled once, as BASTION compiles a binary once: the
   built program, its protected bundle's deployment and the bundle's
   syscall-flow spec are pure functions of (victim, filesystem scope,
   pre-resolution), so every run of every attack on that victim shares
   them.  Sharded matrices fill the cache from several domains; the
   lock makes each key compile exactly once. *)

type compiled = {
  c_prog : Sil.Prog.t;
  c_deployment : Bastion.Api.deployment;
  c_flow : Defenses.Flow_prefilter.spec;
}

let compiled_lock = Mutex.create ()
let compiled_cache : (string * bool * bool, compiled) Hashtbl.t = Hashtbl.create 16

let compile (attack : Attack.t) ~pre_resolve =
  let prog = attack.a_victim.v_build () in
  let p = Bastion.Api.protect ~protect_filesystem:attack.a_fs_scope prog in
  let p = if pre_resolve then Bastion_analysis.Preresolve.enrich p else p in
  { c_prog = prog; c_deployment = Bastion.Api.deploy p;
    c_flow = Bastion_analysis.Flowgraph.extract p }

let compiled (attack : Attack.t) ~pre_resolve =
  let key = (attack.a_victim.v_name, attack.a_fs_scope, pre_resolve) in
  Mutex.protect compiled_lock (fun () ->
      match Hashtbl.find_opt compiled_cache key with
      | Some c -> c
      | None ->
        let c = compile attack ~pre_resolve in
        Hashtbl.replace compiled_cache key c;
        c)

let compiled_bundle attack ~pre_resolve =
  (compiled attack ~pre_resolve).c_deployment.bundle

let run ?(trap_cache = true) ?(pre_resolve = false) ?prefilter ?bundle ?recorder
    ?on_session (attack : Attack.t) (config : config) : outcome =
  let machine_config = { Machine.default_config with fuel = attack_fuel } in
  let machine, process =
    match config with
    | Undefended ->
      Bastion.Api.launch_unprotected ~machine_config (compiled attack ~pre_resolve).c_prog
    | _ ->
      let monitor_config =
        {
          Bastion.Monitor.default_config with
          contexts = contexts_of config;
          trap_cache;
          fs_mode =
            (if attack.a_fs_scope then Bastion.Monitor.Fs_full
             else Bastion.Monitor.Fs_off);
        }
      in
      (* [bundle] overrides the compile pass: the differential replay
         engine deploys a restored (possibly edited) metadata bundle
         through the exact path a recorded attack used. *)
      let session, protected_prog, spec =
        match bundle with
        | Some b ->
          (Bastion.Api.launch ~machine_config ~monitor_config ?recorder b (), b, None)
        | None ->
          let c = compiled attack ~pre_resolve in
          ( Bastion.Api.start ~machine_config ~monitor_config ?recorder c.c_deployment (),
            c.c_deployment.bundle,
            Some c.c_flow )
      in
      (match prefilter with
      | Some mode ->
        ignore
          (Bastion_analysis.Flowgraph.attach ?spec ~mode protected_prog
             ~monitor:session.monitor ~process:session.process)
      | None -> ());
      (* Let the replay engine reach in before execution (swap the trap
         source, wrap the hook); never called for undefended runs. *)
      (match on_session with Some f -> f session | None -> ());
      (session.machine, session.process)
  in
  attack.a_victim.v_setup process;
  let goal_nr = Kernel.Syscalls.number attack.a_goal in
  let goal_hit = ref false in
  process.on_syscall_executed <-
    Some
      (fun ~sysno ~args ~path ->
        if sysno = goal_nr && attack.a_goal_check ~args ~path then begin
          goal_hit := true;
          (* Attack complete: stop the victim. *)
          raise (Machine.Program_exit 0x600DL)
        end);
  attack.a_install machine;
  match Machine.run machine with
  | Machine.Exited _ -> if !goal_hit then Succeeded else Inert
  | Machine.Faulted Machine.Fuel_exhausted -> if !goal_hit then Succeeded else Inert
  | Machine.Faulted fault -> if !goal_hit then Succeeded else Blocked fault

(* ------------------------------------------------------------------ *)
(* The Table 6 matrix                                                  *)

type row = {
  r_attack : Attack.t;
  r_undefended : outcome;
  r_ct : outcome;
  r_cf : outcome;
  r_ai : outcome;
  r_full : outcome;
  r_prefilter : outcome;
      (** syscall-flow pre-filter standalone (the SFIP baseline): the
          automaton is the only defense *)
  r_tiered : outcome;
      (** full BASTION behind the tiered pre-filter (the deployment
          configuration of the tiered design) *)
}

let blocked = function Blocked _ -> true | Succeeded | Inert -> false

(** Which tier of the tiered deployment catches the attack: the cheap
    seccomp-stage automaton alone, the full monitor behind it, or
    neither. *)
type tier = Tier_prefilter | Tier_full | Tier_uncaught

let tier_name = function
  | Tier_prefilter -> "prefilter"
  | Tier_full -> "full"
  | Tier_uncaught -> "uncaught"

let catching_tier (r : row) : tier =
  if blocked r.r_prefilter then Tier_prefilter
  else if blocked r.r_tiered then Tier_full
  else Tier_uncaught

let evaluate ?(trap_cache = true) ?(pre_resolve = false) ?recorder
    (attack : Attack.t) : row =
  {
    r_attack = attack;
    r_undefended = run ~trap_cache ~pre_resolve ?recorder attack Undefended;
    r_ct = run ~trap_cache ~pre_resolve ?recorder attack Only_ct;
    r_cf = run ~trap_cache ~pre_resolve ?recorder attack Only_cf;
    r_ai = run ~trap_cache ~pre_resolve ?recorder attack Only_ai;
    r_full = run ~trap_cache ~pre_resolve ?recorder attack Full_bastion;
    r_prefilter =
      run ~trap_cache ~pre_resolve ~prefilter:Kernel.Seccomp.Flow_standalone
        ?recorder attack Full_bastion;
    r_tiered =
      run ~trap_cache ~pre_resolve ~prefilter:Kernel.Seccomp.Flow_tiered
        ?recorder attack Full_bastion;
  }

(** Does the row agree with the paper's Table 6 entry?  The attack must
    succeed undefended, be blocked by exactly the contexts the paper
    marks with a check, and be blocked by the full deployment. *)
let matches_expectation (r : row) =
  let e = r.r_attack.a_expected in
  r.r_undefended = Succeeded
  && blocked r.r_ct = e.e_ct
  && blocked r.r_cf = e.e_cf
  && blocked r.r_ai = e.e_ai
  && blocked r.r_full

let evaluate_all ?(trap_cache = true) ?(pre_resolve = false) ?recorder () =
  List.map (fun a -> evaluate ~trap_cache ~pre_resolve ?recorder a) Catalog.all

(* Each attack row is a self-contained tracee (a fresh session per
   configuration inside [run], over the shared compile cache), so the
   matrix shards cleanly: one row per tracee on the monitor pool, merged
   back in catalog order. *)
let evaluate_all_sharded ?(trap_cache = true) ?(pre_resolve = false) ?policy
    ~shards () =
  let attacks = Array.of_list Catalog.all in
  let config = Bastion_mt.Monitor_pool.config ?policy ~shards () in
  let jobs =
    Array.map (fun a () -> evaluate ~trap_cache ~pre_resolve a) attacks
  in
  let rows, stats = Bastion_mt.Monitor_pool.run_tracees ~config jobs in
  (Array.to_list rows, stats)
