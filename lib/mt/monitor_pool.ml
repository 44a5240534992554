(* The sharded multi-tracee monitor pool.

   Layout: one bounded Trap_queue and one worker Domain per shard; the
   calling domain is the feeder.  Under the default [Static] policy a
   tracee's work always goes to [shard_of_tracee] of its id; under
   [Steal] an idle shard may take it instead — whole tracees from a
   {!Trap_queue.Deque} in [run_tracees], and a quiescent tracee's next
   trap by the deterministic virtual-clock {!Plan} below for the fleet.
   Whatever the policy, a tracee's work is owned by exactly one shard
   at a time, so per-tracee order stays total.  The feeder blocks when
   a queue is full (backpressure, never drops) and merges results in
   tracee order after joining every worker. *)

type policy = Static | Steal

let policy_name = function Static -> "static" | Steal -> "steal"

let policy_of_string = function
  | "static" -> Some Static
  | "steal" -> Some Steal
  | _ -> None

let all_policies = [ Static; Steal ]

type config = {
  shards : int;
  queue_capacity : int;
  batch : int;
  policy : policy;
}

let default_queue_capacity = 64
let default_batch = 8

let config ?(queue_capacity = default_queue_capacity) ?(batch = default_batch)
    ?(policy = Static) ~shards () =
  if shards < 1 then invalid_arg "Monitor_pool.config: shards must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Monitor_pool.config: queue_capacity must be >= 1";
  if batch < 1 then invalid_arg "Monitor_pool.config: batch must be >= 1";
  { shards; queue_capacity; batch; policy }

let shard_of_tracee ~shards tracee =
  if shards < 1 then invalid_arg "Monitor_pool.shard_of_tracee: shards < 1";
  (tracee mod shards + shards) mod shards

(* ------------------------------------------------------------------ *)
(* The deterministic trap-stream scheduler                             *)

(* Placement runs entirely on the modelled clock, never on host timing:
   the feeder routes every item through one [Plan] in feed order, and a
   serial replay of the same stream routes identically — which is what
   lets the fleet driver's sharded runs stay [Metrics.equal] to the
   serial reference under both policies.

   The claim rule: a tracee's claim may move only when the tracee is
   *quiescent* — its last trap has (virtually) finished before the new
   one arrives — so there is never pending work on two shards at once
   and per-tracee FIFO order stays total.

   - [Static] : claim = shard_of_tracee, forever.
   - [Steal]  : claims start static; when a quiescent tracee's next
                trap would *wait* (its claim shard's clock is past the
                arrival) and a less-loaded shard would start it
                earlier, that shard steals the batch.  Idle thieves,
                loaded victims — and no movement at all while nothing
                queues. *)
module Plan = struct
  (* A tracee's claim: the shard that owns its batch, and its last
     trap's virtual finish ([unrouted] before its first trap). *)
  type claim = { mutable cl_shard : int; mutable cl_done : int }

  type t = {
    pl_policy : policy;
    pl_shards : int;
    pl_clock : int array;  (* per-shard virtual completion time *)
    pl_claims : (int, claim) Hashtbl.t;  (* tracee -> its claim *)
    pl_items : int array;  (* per-shard items routed *)
    pl_busy : int array;  (* per-shard service cycles routed *)
    mutable pl_steals : int;  (* claim moves; every one is a steal *)
  }

  (* Below every arrival, so a tracee's first trap finds it quiescent;
     real finishes are never negative (clocks start at 0 and service
     is non-negative). *)
  let unrouted = min_int

  let create ?(policy = Static) ~shards () =
    if shards < 1 then invalid_arg "Monitor_pool.Plan.create: shards < 1";
    {
      pl_policy = policy;
      pl_shards = shards;
      pl_clock = Array.make shards 0;
      pl_claims = Hashtbl.create 32;
      pl_items = Array.make shards 0;
      pl_busy = Array.make shards 0;
      pl_steals = 0;
    }

  let route t ~tracee ~at ~service =
    if service < 0 then invalid_arg "Monitor_pool.Plan.route: negative service";
    let claim =
      match Hashtbl.find t.pl_claims tracee with
      | c -> c
      | exception Not_found ->
        let c =
          { cl_shard = shard_of_tracee ~shards:t.pl_shards tracee; cl_done = unrouted }
        in
        Hashtbl.add t.pl_claims tracee c;
        c
    in
    let current = claim.cl_shard in
    let target =
      match t.pl_policy with
      | Static -> current
      | Steal ->
        (* A quiescent tracee whose claim shard is backlogged moves to
           the shard with the smallest clock, if one is strictly
           smaller; ties keep the claim, then go to the lowest id. *)
        let thief = ref current in
        if claim.cl_done <= at && t.pl_clock.(current) > at then
          for s = 0 to t.pl_shards - 1 do
            if t.pl_clock.(s) < t.pl_clock.(!thief) then thief := s
          done;
        !thief
    in
    if claim.cl_done <> unrouted && target <> current then
      t.pl_steals <- t.pl_steals + 1;
    let start = Int.max at t.pl_clock.(target) in
    t.pl_clock.(target) <- start + service;
    claim.cl_shard <- target;
    claim.cl_done <- t.pl_clock.(target);
    t.pl_items.(target) <- t.pl_items.(target) + 1;
    t.pl_busy.(target) <- t.pl_busy.(target) + service;
    target

  let steals t = t.pl_steals
  let migrations = steals
  let items_per_shard t = Array.copy t.pl_items
  let busy_per_shard t = Array.copy t.pl_busy
end

(* ------------------------------------------------------------------ *)
(* The deterministic whole-job scheduler                               *)

(* The modelled-deployment counterpart for whole-tracee jobs, where
   every job is available at virtual time 0 and its cost is known (the
   driver measures per-tracee cycles first; placement is accounting,
   not execution).  [Steal] seeds each shard's FIFO with its static
   tracees and replays the work-stealing discipline on virtual clocks:
   the shard that goes idle earliest acts next, popping its own front
   or stealing the *back* of the victim with the most pending cycles. *)
type job_plan = {
  jp_policy : policy;
  jp_assignment : int array;  (* tracee -> shard *)
  jp_shard_cycles : int array;
  jp_makespan : int;
  jp_steals : int;
  jp_migrations : int;
}

let plan_jobs ~policy ~shards (costs : int array) : job_plan =
  if shards < 1 then invalid_arg "Monitor_pool.plan_jobs: shards < 1";
  let n = Array.length costs in
  let assignment = Array.make n (-1) in
  let cycles = Array.make shards 0 in
  let steals = ref 0 in
  (match policy with
  | Static ->
    Array.iteri
      (fun t c ->
        let s = shard_of_tracee ~shards t in
        assignment.(t) <- s;
        cycles.(s) <- cycles.(s) + c)
      costs
  | Steal ->
    (* Per-shard pending FIFOs, seeded statically in tracee order. *)
    let pending = Array.make shards [] in
    for t = n - 1 downto 0 do
      let s = shard_of_tracee ~shards t in
      pending.(s) <- t :: pending.(s)
    done;
    let pending_cycles s = List.fold_left (fun a t -> a + costs.(t)) 0 pending.(s) in
    let remaining = ref n in
    while !remaining > 0 do
      (* The shard idle earliest acts next; ties go to the lowest id. *)
      let actor = ref 0 in
      for s = 1 to shards - 1 do
        if cycles.(s) < cycles.(!actor) then actor := s
      done;
      let s = !actor in
      let take tracee ~stolen =
        assignment.(tracee) <- s;
        cycles.(s) <- cycles.(s) + costs.(tracee);
        if stolen then incr steals;
        decr remaining
      in
      (match pending.(s) with
      | t :: rest ->
        pending.(s) <- rest;
        take t ~stolen:false
      | [] ->
        (* Steal from the back of the victim with the most pending
           work (ties and all-zero-cost tails fall to the lowest
           non-empty victim). *)
        let victim = ref (-1) and best = ref (-1) in
        for v = shards - 1 downto 0 do
          if pending.(v) <> [] then begin
            let pc = pending_cycles v in
            if pc >= !best then begin
              victim := v;
              best := pc
            end
          end
        done;
        if !victim < 0 then
          (* Nothing pending anywhere but remaining > 0: impossible. *)
          assert false
        else begin
          match List.rev pending.(!victim) with
          | [] -> assert false
          | t :: rest_rev ->
            pending.(!victim) <- List.rev rest_rev;
            take t ~stolen:true
        end)
    done);
  let migrations =
    let m = ref 0 in
    Array.iteri
      (fun t s -> if s <> shard_of_tracee ~shards t then incr m)
      assignment;
    !m
  in
  {
    jp_policy = policy;
    jp_assignment = assignment;
    jp_shard_cycles = cycles;
    jp_makespan = Array.fold_left max 0 cycles;
    jp_steals = !steals;
    jp_migrations = migrations;
  }

(* ------------------------------------------------------------------ *)
(* Pool runtime                                                        *)

type shard_stats = {
  sh_shard : int;
  sh_tracees : int;
  sh_items : int;
  sh_queue : Trap_queue.stats;
}

type stats = {
  p_config : config;
  p_tracees : int;
  p_shards : shard_stats array;
  p_steals : int;
  p_migrations : int;
}

(* Feeder/worker skeleton: spawn one worker per shard over its own
   queue, push every item to its shard, close, run [feeder_step], join.
   [worker] consumes batches until the queue drains; its return value
   is the shard's result.  [route], when given, overrides the static
   [shard_of_tracee] placement — this is how the {!Plan}'s decisions
   reach the queues.  [feeder_step] is work the feeding domain does
   while the workers drain instead of waiting on the joins; it fails
   like the feed. *)
let with_pool ?route ?(feeder_step = ignore) (cfg : config)
    ~(items : (int * 'item) Seq.t)
    ~(worker : shard:int -> (int * 'item) Trap_queue.t -> 'acc) :
    'acc array * (int -> Trap_queue.stats) =
  let queues =
    Array.init cfg.shards (fun _ -> Trap_queue.create ~capacity:cfg.queue_capacity)
  in
  let domains =
    Array.init cfg.shards (fun s -> Domain.spawn (fun () -> worker ~shard:s queues.(s)))
  in
  let dest =
    match route with
    | Some f -> f
    | None ->
      fun ((tracee, _) : int * 'item) -> shard_of_tracee ~shards:cfg.shards tracee
  in
  (* Feed on the calling domain; a full shard queue blocks us here —
     that is the backpressure, not a drop. *)
  (try
     Seq.iter (fun item -> Trap_queue.push queues.(dest item) item) items;
     Array.iter Trap_queue.close queues;
     feeder_step ()
   with e ->
     (* Never leave workers running: close and join before re-raising.
        A worker that *also* raised must not shadow the feeder's
        exception — the first failure wins, so join errors are
        discarded here. *)
     Array.iter Trap_queue.close queues;
     Array.iter (fun d -> try ignore (Domain.join d) with _ -> ()) domains;
     raise e);
  (* Join every domain before raising anything, so a failure on shard 0
     cannot leak shards 1..n-1; when several workers failed, the
     lowest-numbered shard's exception wins deterministically. *)
  let joined =
    Array.map
      (fun d -> match Domain.join d with v -> Ok v | exception e -> Error e)
      domains
  in
  let accs =
    Array.map (function Ok v -> v | Error e -> raise e) joined
  in
  (accs, fun s -> Trap_queue.stats queues.(s))

(* ------------------------------------------------------------------ *)
(* Whole-tracee jobs                                                   *)

(* The static path feeds each job through its home shard's bounded
   queue.  Under [Steal] the pool switches to real work stealing over
   {!Trap_queue.Deque}s: every deque is seeded with its shard's static
   tracees, owners pop from the front, and a worker whose deque runs
   dry steals whole-tracee claims from the *back* of the longest
   victim.  (Job costs are unknown until the job runs; the
   deterministic cost-aware split lives in {!plan_jobs}, which the
   drivers use for modelled accounting.)  Each result slot is written
   by exactly one domain and read only after the joins. *)
let run_tracees (type r) ~(config : config) (jobs : (unit -> r) array) :
    r array * stats =
  let n = Array.length jobs in
  let results : (r, exn) result option array = Array.make n None in
  if config.policy = Static then begin
    (* Each queue item is one whole tracee, so a shard's item count
       is its tracee count. *)
    let worker ~shard:_ queue =
      let rec drain ran =
        match Trap_queue.pop_batch queue ~max:config.batch with
        | [] -> ran
        | batch ->
          List.iter
            (fun (tracee, ()) ->
              results.(tracee) <-
                Some (match jobs.(tracee) () with v -> Ok v | exception e -> Error e))
            batch;
          drain (ran + List.length batch)
      in
      drain 0
    in
    let accs, queue_stats =
      with_pool config
        ~items:(Seq.init n (fun i -> (i, ())))
        ~worker
    in
    let shard_stats =
      Array.mapi
        (fun s ran ->
          { sh_shard = s; sh_tracees = ran; sh_items = ran; sh_queue = queue_stats s })
        accs
    in
    let stats =
      { p_config = config; p_tracees = n; p_shards = shard_stats;
        p_steals = 0; p_migrations = 0 }
    in
    let values =
      Array.map
        (function
          | Some (Ok v) -> v
          | Some (Error e) -> raise e
          | None -> assert false (* every index was pushed and drained *))
        results
    in
    (values, stats)
  end
  else begin
    let shards = config.shards in
    let deques = Array.init shards (fun _ -> Trap_queue.Deque.create ()) in
    for t = 0 to n - 1 do
      Trap_queue.Deque.push_back deques.(shard_of_tracee ~shards t) t
    done;
    (* Which shard ran each tracee; single writer per slot, read after
       the joins. *)
    let executed = Array.make n (-1) in
    let worker shard () =
      let items = ref 0 in
      (* Own front first; otherwise steal the back of the longest
         victim.  A lost steal race just rescans — deques are never
         refilled, so an all-empty scan means the work is done. *)
      let rec acquire () =
        match Trap_queue.Deque.pop_front deques.(shard) with
        | Some t -> Some t
        | None ->
          let victim = ref (-1) and best = ref 0 in
          for v = 0 to shards - 1 do
            let len = Trap_queue.Deque.length deques.(v) in
            if len > !best then begin
              victim := v;
              best := len
            end
          done;
          if !victim < 0 then None
          else begin
            match Trap_queue.Deque.steal_back deques.(!victim) with
            | Some t -> Some t
            | None -> acquire ()
          end
      in
      let rec loop () =
        match acquire () with
        | None -> !items
        | Some tracee ->
          incr items;
          executed.(tracee) <- shard;
          results.(tracee) <-
            Some
              (match jobs.(tracee) () with v -> Ok v | exception e -> Error e);
          loop ()
      in
      loop ()
    in
    let domains = Array.init shards (fun s -> Domain.spawn (worker s)) in
    let counts =
      Array.map
        (fun d -> match Domain.join d with v -> Ok v | exception e -> Error e)
        domains
    in
    let counts = Array.map (function Ok v -> v | Error e -> raise e) counts in
    let shard_stats =
      Array.mapi
        (fun s items ->
          let dq = Trap_queue.Deque.stats deques.(s) in
          (* The deque plays the queue's role here; its accounting maps
             onto the queue-stats shape so probes stay uniform.
             [popped] counts claims that left this deque either way. *)
          { sh_shard = s;
            sh_tracees = items;
            sh_items = items;
            sh_queue =
              {
                Trap_queue.q_capacity = config.queue_capacity;
                q_pushed = dq.Trap_queue.Deque.dq_pushed;
                q_popped =
                  dq.Trap_queue.Deque.dq_popped + dq.Trap_queue.Deque.dq_stolen;
                q_max_depth = dq.Trap_queue.Deque.dq_max_len;
                q_blocked_pushes = 0;
                q_batches =
                  dq.Trap_queue.Deque.dq_popped + dq.Trap_queue.Deque.dq_stolen;
              } })
        counts
    in
    let steals =
      Array.fold_left
        (fun acc d -> acc + (Trap_queue.Deque.stats d).Trap_queue.Deque.dq_stolen)
        0 deques
    in
    let migrations = ref 0 in
    Array.iteri
      (fun t s -> if s <> shard_of_tracee ~shards t then incr migrations)
      executed;
    let stats =
      { p_config = config; p_tracees = n; p_shards = shard_stats;
        p_steals = steals; p_migrations = !migrations }
    in
    let values =
      Array.map
        (function
          | Some (Ok v) -> v
          | Some (Error e) -> raise e
          | None -> assert false (* every claim was seeded and consumed *))
        results
    in
    (values, stats)
  end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* A finished pool's accounting is exposed as sampled *probes* over
   the stats snapshot, not copied into owned counters: the snapshot
   stays authoritative (re-registering after another run replaces the
   probe rather than double counting), and the registry read is the
   same [counter_values] path either way. *)
let util_spread (stats : stats) =
  let n = Array.length stats.p_shards in
  if n = 0 then 0.0
  else begin
    let items = Array.map (fun sh -> sh.sh_items) stats.p_shards in
    let total = Array.fold_left ( + ) 0 items in
    if total = 0 then 0.0
    else
      float_of_int (Array.fold_left max 0 items)
      /. (float_of_int total /. float_of_int n)
  end

let mirror_stats (stats : stats) (reg : Obs.Metrics.t) =
  let probe name v =
    Obs.Metrics.register_probe reg name (fun () -> float_of_int v)
  in
  probe "mt.shards" stats.p_config.shards;
  probe "mt.tracees" stats.p_tracees;
  probe "mt.steals" stats.p_steals;
  probe "mt.migrations" stats.p_migrations;
  (* Imbalance in one number: hottest shard's items over the mean.
     1.0 is a perfectly level pool; shards/1 is everything on one. *)
  Obs.Metrics.register_probe reg "mt.util_spread" (fun () -> util_spread stats);
  Array.iter
    (fun (sh : shard_stats) ->
      let p suffix v =
        probe (Printf.sprintf "mt.shard%d.%s" sh.sh_shard suffix) v
      in
      p "items" sh.sh_items;
      p "tracees" sh.sh_tracees;
      p "queue.capacity" sh.sh_queue.Trap_queue.q_capacity;
      p "queue.pushed" sh.sh_queue.Trap_queue.q_pushed;
      p "queue.popped" sh.sh_queue.Trap_queue.q_popped;
      p "queue.max_depth" sh.sh_queue.Trap_queue.q_max_depth;
      p "queue.blocked_pushes" sh.sh_queue.Trap_queue.q_blocked_pushes;
      p "queue.batches" sh.sh_queue.Trap_queue.q_batches;
      Obs.Metrics.register_probe reg
        (Printf.sprintf "mt.shard%d.queue.mean_batch" sh.sh_shard)
        (fun () ->
          if sh.sh_queue.Trap_queue.q_batches = 0 then 0.0
          else
            float_of_int sh.sh_queue.Trap_queue.q_popped
            /. float_of_int sh.sh_queue.Trap_queue.q_batches))
    stats.p_shards
