(* Multi-tracee monitor throughput (`bench/main.exe throughput`,
   `--json-parallel PATH`).

   N identical NGINX tracees run across a {!Bastion_mt.Monitor_pool} of
   1/2/4/8 worker domains, each tracee a full session driven wholly on
   its owning shard.  The headline is the *modelled* makespan traps/sec:
   modelled cycles are the repo's performance currency, and in the
   sharded deployment every shard owns a core, so the makespan is the
   heaviest shard's cycle sum.  The artifact records modelled fields
   only, so it regenerates byte-identically; host wall clock belongs to
   the `bastion run --shards N` summary, which prints it (CI containers
   pin us to however few cores they like).

   Every shard count must reproduce the serial reference byte for byte
   (per-tracee cycles, traps, syscalls, metric); the `matches_serial`
   field records that check so CI can assert it from the artifact. *)

module D = Workloads.Drivers
module J = Report.Json
module Pool = Bastion_mt.Monitor_pool
module Q = Bastion_mt.Trap_queue

let shard_counts = [ 1; 2; 4; 8 ]
let default_tracees = 8

(* The CI smoke configuration: same pipeline, a few hundred traps. *)
let smoke_params =
  { Workloads.Nginx_model.default with connections = 4; requests_per_conn = 20 }

let cps = Workloads.Drivers_config.cycles_per_second

let traps_per_sec ~traps ~cycles =
  float_of_int traps /. (float_of_int cycles /. cps)

(* The per-tracee fingerprint the sharded runs must reproduce. *)
let fingerprint (m : D.measurement) =
  (m.D.m_cycles, m.D.m_traps, m.D.m_syscalls, m.D.m_metric)

(* A shard's row holds only what the static placement fixes: its
   tracees and items, and its queue's push and pop totals.  High-water
   depth, batch count and blocked pushes depend on how fast the worker
   pops while the feeder pushes, so they are left to `bastion run
   --shards` and [Monitor_pool.mirror_stats]. *)
let shard_detail (sh : Pool.shard_stats) : J.t =
  J.Obj
    [
      ("shard", J.Num (float_of_int sh.Pool.sh_shard));
      ("tracees", J.Num (float_of_int sh.Pool.sh_tracees));
      ("items", J.Num (float_of_int sh.Pool.sh_items));
      ("queue_pushed", J.Num (float_of_int sh.Pool.sh_queue.Q.q_pushed));
      ("queue_popped", J.Num (float_of_int sh.Pool.sh_queue.Q.q_popped));
    ]

let record ~(serial : D.measurement array) ~tracees app shards : J.t =
  let m = D.run_multi ~shards ~tracees app D.Bastion_full in
  let matches =
    Array.for_all2
      (fun a b -> fingerprint a = fingerprint b)
      serial m.D.mm_tracees
  in
  let total_traps = D.sum_traps m in
  J.Obj
    [
      ("shards", J.Num (float_of_int shards));
      ("tracees", J.Num (float_of_int tracees));
      ("total_traps", J.Num (float_of_int total_traps));
      ("serial_cycles", J.Num (float_of_int m.D.mm_serial_cycles));
      ("makespan_cycles", J.Num (float_of_int m.D.mm_makespan_cycles));
      ( "modelled_speedup",
        J.Num
          (float_of_int m.D.mm_serial_cycles
          /. float_of_int m.D.mm_makespan_cycles) );
      ( "modelled_traps_per_sec",
        J.Num (traps_per_sec ~traps:total_traps ~cycles:m.D.mm_makespan_cycles)
      );
      ("matches_serial", J.Bool matches);
      ( "per_tracee_cycles",
        J.List
          (Array.to_list
             (Array.map
                (fun (t : D.measurement) -> J.Num (float_of_int t.D.m_cycles))
                m.D.mm_tracees)) );
      ("shard_detail", J.List (Array.to_list (Array.map shard_detail m.D.mm_pool.Pool.p_shards)));
    ]

let document ?(smoke = false) () : J.t =
  let app =
    if smoke then D.nginx ~params:smoke_params () else D.nginx ()
  in
  let tracees = default_tracees in
  let shard_counts = if smoke then [ 1; 2 ] else shard_counts in
  (* The serial reference: a plain loop of [D.run], no pool at all. *)
  let serial = Array.init tracees (fun _ -> D.run app D.Bastion_full) in
  let serial_cycles =
    Array.fold_left (fun acc (m : D.measurement) -> acc + m.D.m_cycles) 0 serial
  in
  let serial_traps =
    Array.fold_left (fun acc (m : D.measurement) -> acc + m.D.m_traps) 0 serial
  in
  let results = List.map (record ~serial ~tracees app) shard_counts in
  J.Obj
    [
      ("schema", J.Str "bastion-bench-parallel/1");
      ( "note",
        J.Str
          "sharded multi-tracee monitor throughput: N identical NGINX \
           tracees over a Monitor_pool of worker domains; \
           modelled_traps_per_sec divides total traps by the makespan \
           (heaviest shard's cycle sum at 3 GHz modelled clock); every \
           shard count must match the serial reference per-tracee \
           (matches_serial)" );
      ("app", J.Str "NGINX");
      ("smoke", J.Bool smoke);
      ("tracees", J.Num (float_of_int tracees));
      ( "serial",
        J.Obj
          [
            ("cycles", J.Num (float_of_int serial_cycles));
            ("traps", J.Num (float_of_int serial_traps));
            ( "modelled_traps_per_sec",
              J.Num (traps_per_sec ~traps:serial_traps ~cycles:serial_cycles) );
          ] );
      ("results", J.List results);
    ]

let emit ?smoke path =
  let doc = document ?smoke () in
  J.to_file path doc;
  Printf.printf "parallel monitor bench JSON written to %s\n" path

(* Printed section (`bench/main.exe throughput`). *)
let run () =
  print_endline "Sharded multi-tracee monitor throughput";
  print_endline "---------------------------------------";
  let app = D.nginx () in
  let tracees = default_tracees in
  let serial = Array.init tracees (fun _ -> D.run app D.Bastion_full) in
  Printf.printf "%d NGINX tracees, full BASTION, modelled 3 GHz clock\n\n" tracees;
  Printf.printf "  %-8s %-16s %-16s %-10s %s\n" "shards" "makespan cycles"
    "traps/sec" "speedup" "matches serial";
  List.iter
    (fun shards ->
      let m = D.run_multi ~shards ~tracees app D.Bastion_full in
      let matches =
        Array.for_all2 (fun a b -> fingerprint a = fingerprint b) serial
          m.D.mm_tracees
      in
      Printf.printf "  %-8d %-16d %-16.0f %-10.2f %b\n" shards
        m.D.mm_makespan_cycles
        (traps_per_sec ~traps:(D.sum_traps m) ~cycles:m.D.mm_makespan_cycles)
        (float_of_int m.D.mm_serial_cycles /. float_of_int m.D.mm_makespan_cycles)
        matches)
    shard_counts;
  print_newline ();
  (* Scheduler ablation at a fixed shard count: identical tracees are
     the balanced best case for static hashing, so this is the floor of
     what stealing can buy — the open-loop fleet bench (heterogeneous
     rates and services) is where the gap opens. *)
  let shards = 4 in
  Printf.printf
    "Scheduler ablation (%d shards): modelled makespan per placement policy\n\n"
    shards;
  Printf.printf "  %-14s %-16s %-10s %-8s %-12s %s\n" "scheduler"
    "makespan cycles" "speedup" "steals" "migrations" "matches serial";
  List.iter
    (fun policy ->
      let m = D.run_multi ~scheduler:policy ~shards ~tracees app D.Bastion_full in
      let matches =
        Array.for_all2 (fun a b -> fingerprint a = fingerprint b) serial
          m.D.mm_tracees
      in
      Printf.printf "  %-14s %-16d %-10.2f %-8d %-12d %b\n"
        (Pool.policy_name policy) m.D.mm_makespan_cycles
        (float_of_int m.D.mm_serial_cycles /. float_of_int m.D.mm_makespan_cycles)
        m.D.mm_plan.Pool.jp_steals m.D.mm_plan.Pool.jp_migrations matches)
    Pool.all_policies;
  print_newline ()
