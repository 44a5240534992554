(* The sharded multi-tracee monitor suite: Trap_queue unit tests and
   backpressure (a full bounded queue blocks producers, never drops),
   the stealing deque, the pool's failure semantics, the steal policy
   of the fleet's planner, whole-tracee jobs and their modelled plan,
   run_multi equivalence against a serial Drivers.run loop, the sharded
   Table 6 matrix, the Api.protect ~validate lint gate, and the
   committed BENCH_parallel_monitor.json artifact shape. *)

module Q = Bastion_mt.Trap_queue
module Pool = Bastion_mt.Monitor_pool
module D = Workloads.Drivers

(* --- Trap_queue ---------------------------------------------------- *)

let test_queue_fifo_and_stats () =
  Alcotest.check_raises "create capacity 0" (Invalid_argument
    "Trap_queue.create: capacity must be >= 1") (fun () ->
      ignore (Q.create ~capacity:0));
  let q = Q.create ~capacity:4 in
  List.iter (Q.push q) [ 1; 2; 3 ];
  (* Close first so draining can never block. *)
  Q.close q;
  Q.close q (* idempotent *);
  Alcotest.(check (list int)) "first batch, FIFO" [ 1; 2 ] (Q.pop_batch q ~max:2);
  Alcotest.(check (list int)) "rest" [ 3 ] (Q.pop_batch q ~max:8);
  Alcotest.(check (list int)) "end-of-stream" [] (Q.pop_batch q ~max:8);
  let s = Q.stats q in
  Alcotest.(check int) "capacity" 4 s.Q.q_capacity;
  Alcotest.(check int) "pushed" 3 s.Q.q_pushed;
  Alcotest.(check int) "popped" 3 s.Q.q_popped;
  Alcotest.(check int) "max depth" 3 s.Q.q_max_depth;
  Alcotest.(check int) "batches" 2 s.Q.q_batches;
  Alcotest.(check bool) "no blocked pushes" true (s.Q.q_blocked_pushes = 0)

let test_queue_close_semantics () =
  let q = Q.create ~capacity:2 in
  Q.push q 1;
  Q.close q;
  Alcotest.check_raises "push after close" Q.Closed (fun () -> Q.push q 2);
  (* Pending items survive the close. *)
  Alcotest.(check (list int)) "drain after close" [ 1 ] (Q.pop_batch q ~max:4);
  Alcotest.(check (list int)) "then end-of-stream" [] (Q.pop_batch q ~max:4)

(* A producer domain against a tiny queue and a deliberately slow
   consumer: the producer must block (backpressure) and every item must
   come through in order — never dropped. *)
let test_backpressure_blocks_never_drops () =
  let n = 50 in
  let q = Q.create ~capacity:2 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Q.push q i
        done;
        Q.close q)
  in
  (* Give the producer time to fill the queue and block on it. *)
  Unix.sleepf 0.02;
  let received = ref [] in
  let rec drain () =
    match Q.pop_batch q ~max:4 with
    | [] -> ()
    | items ->
      received := List.rev_append items !received;
      drain ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check (list int)) "all items, in order" (List.init n Fun.id)
    (List.rev !received);
  let s = Q.stats q in
  Alcotest.(check int) "everything pushed" n s.Q.q_pushed;
  Alcotest.(check int) "everything popped" n s.Q.q_popped;
  Alcotest.(check bool) "the producer did block" true (s.Q.q_blocked_pushes > 0);
  Alcotest.(check bool) "depth never exceeded capacity" true
    (s.Q.q_max_depth <= 2)

(* --- Trap_queue.Deque (the stealing substrate) ----------------------- *)

let test_deque_owner_and_thief () =
  let dq = Q.Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Q.Deque.pop_front dq);
  Alcotest.(check (option int)) "empty steal" None (Q.Deque.steal_back dq);
  List.iter (Q.Deque.push_back dq) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Q.Deque.length dq);
  (* The owner pops the front (FIFO), a thief steals the back. *)
  Alcotest.(check (option int)) "owner pops oldest" (Some 1) (Q.Deque.pop_front dq);
  Alcotest.(check (option int)) "thief steals newest" (Some 3)
    (Q.Deque.steal_back dq);
  Alcotest.(check (option int)) "owner gets the rest" (Some 2)
    (Q.Deque.pop_front dq);
  Alcotest.(check (option int)) "drained" None (Q.Deque.pop_front dq);
  let s = Q.Deque.stats dq in
  Alcotest.(check int) "pushed" 3 s.Q.Deque.dq_pushed;
  Alcotest.(check int) "popped" 2 s.Q.Deque.dq_popped;
  Alcotest.(check int) "stolen" 1 s.Q.Deque.dq_stolen;
  Alcotest.(check int) "high water" 3 s.Q.Deque.dq_max_len

(* --- with_pool failure semantics (first failure wins) -------------- *)

exception Feeder_boom
exception Worker_boom

(* Regression: the feeder's exception must survive even when every
   worker *also* raised — the cleanup joins must discard worker
   errors, not let them shadow the first failure. *)
let test_pool_feeder_exception_wins () =
  let items () =
    Seq.Cons ((0, 0), fun () -> raise Feeder_boom)
  in
  Alcotest.check_raises "feeder exception wins over worker errors"
    Feeder_boom (fun () ->
      ignore
        (Pool.with_pool
           (Pool.config ~shards:2 ())
           ~items
           ~worker:(fun ~shard:_ _ -> raise Worker_boom)))

(* --- the fleet's planner ---------------------------------------------- *)

(* The adversarial elephant: one tracee fires six traps for every one
   of the others', so its static home shard drowns.  Routed through the
   planner the fleet feeds its pool with, the steal policy must
   actually fire (steals > 0) and must level the pool: the hottest
   shard takes strictly fewer traps than under static pinning.
   Deterministic — the stream is fixed, the plan is virtual. *)
let test_stream_steal_beats_static () =
  let shards = 2 in
  (* Tracees 0 and 2 are homed on shard 0; 0 becomes the elephant.  A
     balanced warm-up first, so every tracee's claim is established on
     its home shard — only then does the elephant drown shard 0 and
     force tracee 2's claim to be *stolen* rather than first-placed. *)
  let rounds n r = List.concat (List.init n (fun _ -> r)) in
  let stream = rounds 10 [ 0; 1; 2; 3 ] @ rounds 20 [ 0; 0; 0; 0; 0; 0; 1; 2; 3 ] in
  (* Every trap costs one cycle and arrives at the ideal-balance
     completion time of the stream before it. *)
  let route policy =
    let plan = Pool.Plan.create ~policy ~shards () in
    List.iteri
      (fun i tracee -> ignore (Pool.Plan.route plan ~tracee ~at:(i / shards) ~service:1))
      stream;
    plan
  in
  let max_items plan = Array.fold_left max 0 (Pool.Plan.items_per_shard plan) in
  (* The hottest shard's traps over the mean per shard. *)
  let spread plan =
    float_of_int (max_items plan)
    /. (float_of_int (List.length stream) /. float_of_int shards)
  in
  let static = route Pool.Static and steal = route Pool.Steal in
  Alcotest.(check int) "static never steals" 0 (Pool.Plan.steals static);
  Alcotest.(check bool) "steal policy actually stole" true (Pool.Plan.steals steal > 0);
  Alcotest.(check bool)
    (Printf.sprintf "hottest shard levelled (%d < %d items)" (max_items steal)
       (max_items static))
    true
    (max_items steal < max_items static);
  Alcotest.(check bool) "spread improves" true (spread steal < spread static)

(* --- the deterministic whole-job scheduler ------------------------- *)

let test_plan_jobs_policies () =
  let costs = [| 100; 10; 10; 10; 10; 10 |] in
  let shards = 2 in
  let static = Pool.plan_jobs ~policy:Pool.Static ~shards costs in
  Alcotest.(check (array int)) "static pins to homes" [| 0; 1; 0; 1; 0; 1 |]
    static.Pool.jp_assignment;
  Alcotest.(check int) "static makespan is the hot home" 120
    static.Pool.jp_makespan;
  Alcotest.(check int) "static steals nothing" 0 static.Pool.jp_steals;
  Alcotest.(check int) "static migrates nothing" 0 static.Pool.jp_migrations;
  let steal = Pool.plan_jobs ~policy:Pool.Steal ~shards costs in
  Alcotest.(check int) "steal reaches the same makespan" 100
    steal.Pool.jp_makespan;
  Alcotest.(check int) "two victims stolen" 2 steal.Pool.jp_steals;
  Alcotest.(check int) "steals are migrations" 2 steal.Pool.jp_migrations;
  List.iter
    (fun (p : Pool.job_plan) ->
      Alcotest.(check int) "every cycle accounted"
        (Array.fold_left ( + ) 0 costs)
        (Array.fold_left ( + ) 0 p.Pool.jp_shard_cycles))
    [ static; steal ]

(* --- Monitor_pool: whole-tracee jobs ------------------------------- *)

let test_run_tracees_order () =
  let jobs = Array.init 9 (fun i () -> i * i) in
  List.iter
    (fun shards ->
      let results, stats =
        Pool.run_tracees ~config:(Pool.config ~shards ()) jobs
      in
      Alcotest.(check (array int))
        (Printf.sprintf "tracee order at %d shards" shards)
        (Array.init 9 (fun i -> i * i))
        results;
      Alcotest.(check int) "stats count tracees" 9 stats.Pool.p_tracees;
      Alcotest.(check int) "every tracee owned by a shard" 9
        (Array.fold_left (fun acc sh -> acc + sh.Pool.sh_tracees) 0
           stats.Pool.p_shards))
    [ 1; 2; 4 ]

exception Tracee_boom of int

let test_run_tracees_exception () =
  (* Tracees 1 and 3 both fail; the lowest-numbered one wins whatever
     order the shards ran in. *)
  let jobs =
    Array.init 5 (fun i () ->
        if i = 1 || i = 3 then raise (Tracee_boom i) else i)
  in
  Alcotest.check_raises "lowest failing tracee propagates" (Tracee_boom 1)
    (fun () -> ignore (Pool.run_tracees ~config:(Pool.config ~shards:3 ()) jobs))

let test_shard_of_tracee_stable () =
  for t = 0 to 20 do
    for shards = 1 to 6 do
      let s = Pool.shard_of_tracee ~shards t in
      Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
      Alcotest.(check int) "stable" s (Pool.shard_of_tracee ~shards t)
    done
  done;
  Alcotest.(check int) "round robin" 1 (Pool.shard_of_tracee ~shards:4 5)

let test_mirror_stats () =
  let _, stats =
    Pool.run_tracees
      ~config:(Pool.config ~shards:2 ())
      (Array.init 5 (fun i () -> i))
  in
  let reg = Obs.Metrics.create () in
  Pool.mirror_stats stats reg;
  let assoc name = List.assoc name (Obs.Metrics.counter_values reg) in
  Alcotest.(check (float 1e-9)) "mt.shards" 2.0 (assoc "mt.shards");
  Alcotest.(check (float 1e-9)) "mt.tracees" 5.0 (assoc "mt.tracees");
  Alcotest.(check (float 1e-9)) "shard0 owns 0,2,4" 3.0 (assoc "mt.shard0.tracees");
  Alcotest.(check (float 1e-9)) "shard1 owns 1,3" 2.0 (assoc "mt.shard1.tracees");
  (* The imbalance probes ride along: a static 3/2 split of 5 items. *)
  Alcotest.(check (float 1e-9)) "mt.steals" 0.0 (assoc "mt.steals");
  Alcotest.(check (float 1e-9)) "mt.migrations" 0.0 (assoc "mt.migrations");
  Alcotest.(check (float 1e-9)) "mt.util_spread" (3.0 /. 2.5)
    (assoc "mt.util_spread")

(* run_tracees under stealing: results still come back in tracee order
   and every claim is processed exactly once, whichever worker ran
   it. *)
let test_run_tracees_stealing () =
  let n = 12 in
  let jobs = Array.init n (fun i () -> i * i) in
  let results, stats =
    Pool.run_tracees ~config:(Pool.config ~shards:3 ~policy:Pool.Steal ()) jobs
  in
  Alcotest.(check (array int)) "tracee order preserved"
    (Array.init n (fun i -> i * i))
    results;
  Alcotest.(check int) "every claim ran exactly once" n
    (Array.fold_left (fun acc sh -> acc + sh.Pool.sh_items) 0 stats.Pool.p_shards)

(* --- run_multi: equivalence with a serial Drivers.run loop --------- *)

let small_nginx () =
  D.nginx
    ~params:
      { Workloads.Nginx_model.default with connections = 2; requests_per_conn = 12 }
    ()

let fingerprint (m : D.measurement) =
  (m.D.m_cycles, m.D.m_traps, m.D.m_syscalls, m.D.m_metric)

let test_run_multi_matches_serial () =
  let app = small_nginx () in
  let tracees = 4 in
  let serial = Array.init tracees (fun _ -> D.run app D.Bastion_full) in
  let serial_cycles =
    Array.fold_left (fun acc (m : D.measurement) -> acc + m.D.m_cycles) 0 serial
  in
  List.iter
    (fun shards ->
      let m = D.run_multi ~shards ~tracees app D.Bastion_full in
      Alcotest.(check bool)
        (Printf.sprintf "per-tracee results identical at %d shards" shards)
        true
        (Array.for_all2
           (fun a b -> fingerprint a = fingerprint b)
           serial m.D.mm_tracees);
      Alcotest.(check int) "serial cycle total" serial_cycles m.D.mm_serial_cycles;
      Alcotest.(check bool) "makespan bounded by serial" true
        (m.D.mm_makespan_cycles <= m.D.mm_serial_cycles);
      if shards = 1 then
        Alcotest.(check int) "one shard: makespan == serial" serial_cycles
          m.D.mm_makespan_cycles)
    [ 1; 2; 3 ]

(* The scheduler axis: a tracee's session never outlives its executing
   domain, so placement must not change a single measured bit.  The
   job plan behind the makespan must account every cycle. *)
let test_run_multi_schedulers () =
  let app = small_nginx () in
  let tracees = 3 and shards = 2 in
  let serial = Array.init tracees (fun _ -> D.run app D.Bastion_full) in
  let serial_cycles =
    Array.fold_left (fun acc (m : D.measurement) -> acc + m.D.m_cycles) 0 serial
  in
  List.iter
    (fun policy ->
      let m = D.run_multi ~scheduler:policy ~shards ~tracees app D.Bastion_full in
      Alcotest.(check bool)
        (Pool.policy_name policy ^ ": per-tracee results identical")
        true
        (Array.for_all2
           (fun a b -> fingerprint a = fingerprint b)
           serial m.D.mm_tracees);
      Alcotest.(check bool) "plan carries the policy" true
        (m.D.mm_plan.Pool.jp_policy = policy);
      Alcotest.(check int) "makespan is the plan's" m.D.mm_plan.Pool.jp_makespan
        m.D.mm_makespan_cycles;
      Alcotest.(check int) "plan accounts every cycle" serial_cycles
        (Array.fold_left ( + ) 0 m.D.mm_plan.Pool.jp_shard_cycles);
      Alcotest.(check bool) "makespan bounded by serial" true
        (m.D.mm_makespan_cycles <= serial_cycles))
    Pool.all_policies;
  (* Lane stamping relies on the static pin, so the combination of
     shard recorders and a stealing scheduler is a usage error. *)
  Alcotest.check_raises "recorders require the static scheduler"
    (Invalid_argument
       "Drivers.run_multi: shard_recorders requires the static scheduler")
    (fun () ->
      ignore
        (D.run_multi ~scheduler:Pool.Steal ~shards:2 ~tracees:2
           ~shard_recorders:(Array.init 2 (fun _ -> Obs.Recorder.create ()))
           app D.Bastion_full))

let test_run_multi_recorders () =
  let app = small_nginx () in
  Alcotest.check_raises "recorder array must match shard count"
    (Invalid_argument
       "Drivers.run_multi: shard_recorders must have one slot per shard")
    (fun () ->
      ignore
        (D.run_multi ~shards:2 ~tracees:2
           ~shard_recorders:[| Obs.Recorder.create () |]
           app D.Bastion_full));
  (* With one recorder per shard, observation still changes nothing. *)
  let serial = D.run app D.Bastion_full in
  let recorders = Array.init 2 (fun _ -> Obs.Recorder.create ~metrics:true ()) in
  let m =
    D.run_multi ~shards:2 ~tracees:3 ~shard_recorders:recorders app
      D.Bastion_full
  in
  Array.iter
    (fun t ->
      Alcotest.(check bool) "observed tracee matches unobserved serial" true
        (fingerprint t = fingerprint serial))
    m.D.mm_tracees

(* --- the sharded Table 6 matrix ------------------------------------ *)

let outcome_sig = function
  | Attacks.Runner.Succeeded -> "S"
  | Attacks.Runner.Inert -> "I"
  | Attacks.Runner.Blocked f -> "B:" ^ Machine.fault_to_string f

let row_sig (r : Attacks.Runner.row) =
  ( r.r_attack.a_id,
    outcome_sig r.r_undefended,
    outcome_sig r.r_ct,
    outcome_sig r.r_cf,
    outcome_sig r.r_ai,
    outcome_sig r.r_full )

let test_table6_sharded_matches_serial () =
  let serial = List.map row_sig (Attacks.Runner.evaluate_all ()) in
  let rows, stats = Attacks.Runner.evaluate_all_sharded ~shards:4 () in
  let sharded = List.map row_sig rows in
  Alcotest.(check int) "same row count" (List.length serial) (List.length sharded);
  List.iter2
    (fun (id, u, ct, cf, ai, full) (id', u', ct', cf', ai', full') ->
      Alcotest.(check string) "same attack order" id id';
      Alcotest.(check string) (id ^ " undefended") u u';
      Alcotest.(check string) (id ^ " ct") ct ct';
      Alcotest.(check string) (id ^ " cf") cf cf';
      Alcotest.(check string) (id ^ " ai") ai ai';
      Alcotest.(check string) (id ^ " full") full full')
    serial sharded;
  Alcotest.(check int) "every row ran on some shard"
    (List.length serial)
    (Array.fold_left (fun acc sh -> acc + sh.Pool.sh_tracees) 0
       stats.Pool.p_shards);
  (* The stealing scheduler reproduces the matrix too — attack rows
     are whole-tracee jobs, so placement cannot change a verdict. *)
  let rows_steal, _ =
    Attacks.Runner.evaluate_all_sharded ~policy:Pool.Steal ~shards:4 ()
  in
  Alcotest.(check bool) "steal-scheduled matrix identical" true
    (List.map row_sig rows_steal = serial)

(* --- the Api.protect ~validate lint gate --------------------------- *)

let test_validate_gate () =
  (* The canonical registration (Drivers arms it at module init; arm it
     here explicitly so this test stands alone). *)
  Bastion_analysis.Lint.register_api_validator ();
  let prog = Test_fastpath.chain_program 3 1 in
  (* Sound metadata sails through. *)
  ignore (Bastion.Api.protect ~validate:true prog);
  (* A failing validator turns into Validation_failed. *)
  Bastion.Api.set_validator (Some (fun _ -> [ "synthetic diagnostic" ]));
  (match Bastion.Api.protect ~validate:true prog with
  | exception Bastion.Api.Validation_failed [ "synthetic diagnostic" ] -> ()
  | exception Bastion.Api.Validation_failed msgs ->
    Alcotest.fail ("wrong diagnostics: " ^ String.concat "; " msgs)
  | _ -> Alcotest.fail "failing validator did not stop protect");
  (* Default remains off: no validation, no raise. *)
  ignore (Bastion.Api.protect prog);
  (* validate:true with no validator registered is a usage error. *)
  Bastion.Api.set_validator None;
  (match Bastion.Api.protect ~validate:true prog with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "validate without a validator should be rejected");
  (* Restore the real gate for the rest of the suite. *)
  Bastion_analysis.Lint.register_api_validator ()

(* --- the committed bench artifact ---------------------------------- *)

let test_bench_parallel_artifact () =
  Testlib.Artifacts.(holds (parallel ~fast:(committed fastpath_file) (committed parallel_file)))

let suites =
  [
    ( "mt-queue",
      [
        Alcotest.test_case "FIFO order and statistics" `Quick
          test_queue_fifo_and_stats;
        Alcotest.test_case "close semantics" `Quick test_queue_close_semantics;
        Alcotest.test_case "backpressure blocks, never drops" `Quick
          test_backpressure_blocks_never_drops;
        Alcotest.test_case "deque: owner pops front, thief steals back" `Quick
          test_deque_owner_and_thief;
      ] );
    ( "mt-pool",
      [
        Alcotest.test_case "elephant stream: steal levels the pool" `Quick
          test_stream_steal_beats_static;
        Alcotest.test_case "plan_jobs across the policies" `Quick
          test_plan_jobs_policies;
        Alcotest.test_case "feeder exception wins over worker errors" `Quick
          test_pool_feeder_exception_wins;
        Alcotest.test_case "run_tracees merges in tracee order" `Quick
          test_run_tracees_order;
        Alcotest.test_case "run_tracees steals whole claims" `Quick
          test_run_tracees_stealing;
        Alcotest.test_case "lowest failing tracee propagates" `Quick
          test_run_tracees_exception;
        Alcotest.test_case "shard assignment is stable" `Quick
          test_shard_of_tracee_stable;
        Alcotest.test_case "stats mirror into the metrics registry" `Quick
          test_mirror_stats;
      ] );
    ( "mt-drivers",
      [
        Alcotest.test_case "run_multi matches a serial run loop" `Quick
          test_run_multi_matches_serial;
        Alcotest.test_case "run_multi under every scheduler" `Quick
          test_run_multi_schedulers;
        Alcotest.test_case "per-shard recorders" `Quick test_run_multi_recorders;
        Alcotest.test_case "sharded Table 6 matches serial" `Slow
          test_table6_sharded_matches_serial;
      ] );
    ( "mt-gate",
      [ Alcotest.test_case "Api.protect ~validate lint gate" `Quick
          test_validate_gate ] );
    ( "mt-bench",
      [
        Alcotest.test_case "parallel bench artifact shape" `Quick
          test_bench_parallel_artifact;
      ] );
  ]
