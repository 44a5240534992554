(** The sharded multi-tracee monitor pool.

    The paper's monitor (§7) serially traps and verifies one tracee's
    syscalls; total verification throughput is therefore capped at one
    trap at a time no matter how many protected processes exist.  The
    pool shards *tracees* across OCaml 5 worker domains: a bounded
    {!Trap_queue} per shard carries its work with blocking-push
    backpressure, and each shard's verification state — the per-tracee
    [Monitor.t], its verdict cache, its recorder — is created and only
    ever touched on that shard's domain *while the shard owns the
    tracee's claim*.

    Placement is a {!policy}.  Under the default {!Static} every tracee
    is pinned to [shard_of_tracee] of its id forever.  Under {!Steal}
    an idle shard may take a tracee's work, but a tracee is still owned
    by exactly one shard at a time (DESIGN §13).  Verdicts, modelled
    cycles and denials are byte-identical to a serial run under both
    policies; results are merged back in tracee order.

    Two callers:
    - {!run_tracees}: whole-tracee jobs (boot a session, run the
      machine, verify its traps in-domain as they stop) — what the
      multi-tracee workload driver and the attack runner use;
    - {!with_pool} fed through a {!Plan}: the open-loop fleet driver's
      arrivals, one list per shard, with its serial reference run as
      the feeder step. *)

(** How tracee work is placed on shards. *)
type policy =
  | Static  (** pin to [shard_of_tracee], never move — the baseline *)
  | Steal
      (** static homes, but an idle shard steals a quiescent tracee's
          next batch when its claim shard would make it wait *)

val policy_name : policy -> string
(** ["static"], ["steal"] — the CLI spelling. *)

val policy_of_string : string -> policy option
(** Inverse of {!policy_name}. *)

val all_policies : policy list
(** [[Static; Steal]] — ablation sweep order. *)

type config = {
  shards : int;          (** worker domains; >= 1 *)
  queue_capacity : int;  (** bound of each shard's trap queue *)
  batch : int;           (** max items per consumer pop *)
  policy : policy;       (** placement policy; {!Static} by default *)
}

val default_queue_capacity : int
val default_batch : int

(** [config ~shards ()] with defaulted queue bounds and the {!Static}
    policy.  @raise Invalid_argument on a non-positive field. *)
val config :
  ?queue_capacity:int -> ?batch:int -> ?policy:policy -> shards:int -> unit ->
  config

(** The *home* shard of a tracee: stable by id.  Under {!Static} this
    is final; under {!Steal} it seeds the claim. *)
val shard_of_tracee : shards:int -> int -> int

(** The deterministic trap-stream scheduler.  One plan routes a whole
    stream in feed order on modelled virtual clocks — never host
    timing — so a sharded run and a serial replay of the same stream
    place every trap identically, which is what keeps sharded metrics
    [Metrics.equal] to the serial reference under both policies.  A
    tracee's claim may move only when the tracee is quiescent (its
    previous trap's virtual finish is at or before the new arrival), so
    there is never pending work on two shards at once. *)
module Plan : sig
  type t

  val create : ?policy:policy -> shards:int -> unit -> t
  (** Fresh plan, all clocks zero.  @raise Invalid_argument on
      [shards < 1]. *)

  val route : t -> tracee:int -> at:int -> service:int -> int
  (** Route one trap arriving at modelled cycle [at] costing [service]
      cycles to its shard, advancing that shard's clock.  Must be
      called in feed order.  @raise Invalid_argument on negative
      [service]. *)

  val steals : t -> int
  (** Claims the {!Steal} policy moved so far. *)

  val migrations : t -> int
  (** Claim moves so far: every move is a steal, so this equals
      {!steals}. *)

  val items_per_shard : t -> int array

  val busy_per_shard : t -> int array
  (** Routed items / service cycles per shard — the modelled load the
      fleet driver turns into per-shard utilisation. *)
end

(** Deterministic placement of whole-tracee jobs with known costs:
    the modelled-deployment counterpart of {!run_tracees}' real
    stealing, used by the drivers for makespan accounting.  [Static]
    groups by home shard; [Steal] replays the stealing discipline on
    virtual clocks — the earliest-idle shard pops its own FIFO front or
    steals the back of the victim with the most pending cycles. *)
type job_plan = {
  jp_policy : policy;
  jp_assignment : int array;   (** tracee -> shard *)
  jp_shard_cycles : int array; (** accumulated cycles per shard *)
  jp_makespan : int;           (** max over shards *)
  jp_steals : int;             (** [Steal]-policy steals (else 0) *)
  jp_migrations : int;         (** tracees not on their home shard *)
}

val plan_jobs : policy:policy -> shards:int -> int array -> job_plan
(** [plan_jobs ~policy ~shards costs] where [costs.(t)] is tracee
    [t]'s measured cycles.  @raise Invalid_argument on [shards < 1]. *)

type shard_stats = {
  sh_shard : int;
  sh_tracees : int;             (** distinct tracees this shard served *)
  sh_items : int;               (** work items it processed *)
  sh_queue : Trap_queue.stats;  (** its queue's lifetime statistics *)
}

type stats = {
  p_config : config;
  p_tracees : int;
  p_shards : shard_stats array;
  p_steals : int;      (** claims/batches moved by stealing *)
  p_migrations : int;  (** tracees run away from their home shard *)
}

(** The feeder/worker skeleton, exposed for harnesses that need raw
    shard workers (the open-loop fleet driver): one worker domain and
    one bounded queue per shard; every item is pushed to its tracee's
    home shard, or to [route item] when [route] is given — how a
    {!Plan}'s decisions reach the queues.  Queues close when the item
    sequence ends; the feeding domain then runs [feeder_step] (default:
    nothing) while the workers drain, and joins them once it returns.
    Workers' results come back in shard order, with a post-join
    accessor for each queue's lifetime stats.

    Failure semantics: if the feeder raises — while pushing, or in
    [feeder_step] — queues are closed and all workers joined (join
    errors discarded) before the feeder's exception is re-raised, so
    it wins over any worker error, whenever that worker raised.  If
    only workers raise, every domain is joined first (a worker error
    raised while [feeder_step] runs surfaces after the step returns)
    and the lowest-numbered shard's exception wins deterministically. *)
val with_pool :
  ?route:(int * 'item -> int) ->
  ?feeder_step:(unit -> unit) ->
  config ->
  items:(int * 'item) Seq.t ->
  worker:(shard:int -> (int * 'item) Trap_queue.t -> 'acc) ->
  'acc array * (int -> Trap_queue.stats)

(** Run one job per tracee (index = tracee id).  Under {!Static} each
    job runs on its home shard's domain, serially in queue order.
    Under {!Steal} the pool work-steals for real: each shard's
    {!Trap_queue.Deque} is seeded with its home tracees, owners pop
    the front, and an idle worker steals whole-tracee claims from the
    back of the longest victim (job costs are unknown until run; the
    cost-aware modelled split lives in {!plan_jobs}).  Results come
    back in tracee order.  If jobs raised, the exception of the
    lowest-numbered failing tracee is re-raised after every domain has
    been joined (deterministic, no orphaned domains). *)
val run_tracees : config:config -> (unit -> 'r) array -> 'r array * stats

val util_spread : stats -> float
(** Imbalance in one number: the hottest shard's items over the mean
    per-shard items.  [1.0] is perfectly level, [shards] is everything
    on one shard; [0.0] when the pool processed nothing. *)

(** Expose a finished pool's per-shard occupancy and queue
    backpressure accounting as sampled probes on a metrics registry
    ([mt.shards], [mt.tracees], [mt.steals], [mt.migrations],
    [mt.util_spread], and per shard [mt.shard<i>.items], [.tracees],
    [.queue.capacity], [.queue.pushed], [.queue.popped],
    [.queue.max_depth], [.queue.blocked_pushes], [.queue.batches],
    [.queue.mean_batch]).  Probes, not counters: the stats snapshot
    stays authoritative and re-registration replaces rather than
    double counts. *)
val mirror_stats : stats -> Obs.Metrics.t -> unit
