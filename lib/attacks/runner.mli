(** Attack execution and context attribution.

    Each attack runs under five configurations: undefended (the exploit
    must work), each context alone (the Table 6 ✓/×), and full BASTION
    (must block).  ROP-era machines run without CET (§10.1). *)

type config = Undefended | Only_ct | Only_cf | Only_ai | Full_bastion

val config_name : config -> string

type outcome =
  | Succeeded             (** the goal syscall executed with attacker values *)
  | Blocked of Machine.fault
  | Inert                 (** run ended without the attack completing *)

val outcome_name : outcome -> string

(** Fuel bound for attack runs (hijacked gadgets may spin). *)
val attack_fuel : int

(** [trap_cache] toggles the monitor's CT+CF verdict cache (default
    on); the Table 6 matrix must be identical either way.
    [pre_resolve] enables constant-argument pre-resolution (default
    off); the matrix must again be identical either way.  [recorder]
    attaches a flight recorder to the monitored configurations; the
    matrix must also be identical with and without it.  [prefilter]
    deploys the syscall-flow pre-filter in the given mode on the
    monitored configurations (standalone models SFIP as the sole
    defense; tiered puts it in front of the configured contexts).
    [on_session] fires once the session is built, before setup and
    execution — the replay engine's hook for swapping the monitor's
    trap source (never called for undefended runs, which have no
    session).  Every run starts a fresh session through
    {!Workloads.Deployments.stage}, from its victim's entry (victim,
    filesystem scope, pre-resolution) or, with [bundle], from a
    restored (possibly edited) metadata bundle that gets a deployment
    and graph of its own — the differential replay seam. *)
val run :
  ?trap_cache:bool -> ?pre_resolve:bool ->
  ?prefilter:Kernel.Seccomp.flow_mode ->
  ?bundle:Bastion.Api.protected -> ?recorder:Obs.Recorder.t ->
  ?on_session:(Bastion.Api.session -> unit) ->
  Attack.t -> config -> outcome

(** One evaluated Table 6 row, extended with the tiered deployment's
    two extra configurations. *)
type row = {
  r_attack : Attack.t;
  r_undefended : outcome;
  r_ct : outcome;
  r_cf : outcome;
  r_ai : outcome;
  r_full : outcome;
  r_prefilter : outcome;  (** pre-filter standalone (the SFIP baseline) *)
  r_tiered : outcome;     (** full BASTION behind the tiered pre-filter *)
}

val blocked : outcome -> bool

(** Which tier of the tiered deployment catches the attack. *)
type tier = Tier_prefilter | Tier_full | Tier_uncaught

val tier_name : tier -> string
val catching_tier : row -> tier

val evaluate :
  ?trap_cache:bool -> ?pre_resolve:bool -> ?recorder:Obs.Recorder.t ->
  Attack.t -> row

(** Does the row agree with the paper: succeeds undefended, blocked by
    exactly the expected contexts, blocked by the full deployment? *)
val matches_expectation : row -> bool

val evaluate_all :
  ?trap_cache:bool -> ?pre_resolve:bool -> ?recorder:Obs.Recorder.t ->
  unit -> row list

(** The Table 6 matrix with each attack row evaluated as its own tracee
    on a {!Bastion_mt.Monitor_pool} of [shards] worker domains.  Rows
    come back in catalog order and must equal {!evaluate_all} verdict
    for verdict at every shard count and under every scheduler
    [policy] (each run starts a fresh session, so no verification
    state crosses rows or domains, wherever a row executes; the
    deployments they share are never mutated). *)
val evaluate_all_sharded :
  ?trap_cache:bool -> ?pre_resolve:bool ->
  ?policy:Bastion_mt.Monitor_pool.policy -> shards:int ->
  unit -> row list * Bastion_mt.Monitor_pool.stats
