(* Multi-tracee monitor throughput (BENCH_parallel_monitor.json and the
   `throughput` section).

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
   field records that check so the artifact's test can assert it.
   Scheduler policies are compared on the heterogeneous fleet (the
   `fleet` section): identical tracees give every policy the same
   makespan. *)

module D = Workloads.Drivers
module J = Report.Json
module Pool = Bastion_mt.Monitor_pool
module Q = Bastion_mt.Trap_queue

let shard_counts = [ 1; 2; 4; 8 ]
let tracees = 8

let cps = Workloads.Drivers_config.cycles_per_second

let traps_per_sec ~traps ~cycles =
  float_of_int traps /. (float_of_int cycles /. cps)

(* The per-tracee fingerprint the sharded runs must reproduce. *)
let fingerprint (m : D.measurement) =
  (m.D.m_cycles, m.D.m_traps, m.D.m_syscalls, m.D.m_metric)

(* One shard count's run.  A shard's detail holds only what the static
   placement fixes: its tracees and items, and its queue's push and pop
   totals.  High-water depth, batch count and blocked pushes depend on
   how fast the worker pops while the feeder pushes, so they are left to
   `bastion run --shards` and [Monitor_pool.mirror_stats]. *)
type row = {
  shards : int;
  total_traps : int;
  serial_cycles : int;
  makespan_cycles : int;
  matches_serial : bool;
  per_tracee_cycles : int list;
  shard_detail : Pool.shard_stats list;
}

(* The serial reference's totals, then one row per shard count. *)
type bench = { reference_cycles : int; reference_traps : int; rows : row list }

let bench : bench Lazy.t =
  lazy
    (let app = D.nginx () in
     (* The serial reference: a plain loop of [D.run], no pool at all. *)
     let serial = Array.init tracees (fun _ -> D.run app D.Bastion_full) in
     let sum f = Array.fold_left (fun acc m -> acc + f m) 0 serial in
     let row shards : row =
       let m = D.run_multi ~shards ~tracees app D.Bastion_full in
       {
         shards;
         total_traps = D.sum_traps m;
         serial_cycles = m.D.mm_serial_cycles;
         makespan_cycles = m.D.mm_makespan_cycles;
         matches_serial =
           Array.for_all2
             (fun a b -> fingerprint a = fingerprint b)
             serial m.D.mm_tracees;
         per_tracee_cycles =
           Array.to_list (Array.map (fun (t : D.measurement) -> t.D.m_cycles) m.D.mm_tracees);
         shard_detail = Array.to_list m.D.mm_pool.Pool.p_shards;
       }
     in
     {
       reference_cycles = sum (fun m -> m.D.m_cycles);
       reference_traps = sum (fun m -> m.D.m_traps);
       rows = List.map row shard_counts;
     })

let speedup (r : row) = float_of_int r.serial_cycles /. float_of_int r.makespan_cycles

let int = Results.Run.int

let shard_json (sh : Pool.shard_stats) : J.t =
  J.Obj
    [
      ("shard", int sh.Pool.sh_shard);
      ("tracees", int sh.Pool.sh_tracees);
      ("items", int sh.Pool.sh_items);
      ("queue_pushed", int sh.Pool.sh_queue.Q.q_pushed);
      ("queue_popped", int sh.Pool.sh_queue.Q.q_popped);
    ]

let row_json (r : row) : J.t =
  J.Obj
    [
      ("shards", int r.shards);
      ("tracees", int tracees);
      ("total_traps", int r.total_traps);
      ("serial_cycles", int r.serial_cycles);
      ("makespan_cycles", int r.makespan_cycles);
      ("modelled_speedup", J.Num (speedup r));
      ( "modelled_traps_per_sec",
        J.Num (traps_per_sec ~traps:r.total_traps ~cycles:r.makespan_cycles) );
      ("matches_serial", J.Bool r.matches_serial);
      ("per_tracee_cycles", J.List (List.map int r.per_tracee_cycles));
      ("shard_detail", J.List (List.map shard_json r.shard_detail));
    ]

let document () : J.t =
  let b = Lazy.force bench in
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
      ("smoke", J.Bool false);
      ("tracees", int tracees);
      ( "serial",
        J.Obj
          [
            ("cycles", int b.reference_cycles);
            ("traps", int b.reference_traps);
            ( "modelled_traps_per_sec",
              J.Num (traps_per_sec ~traps:b.reference_traps ~cycles:b.reference_cycles) );
          ] );
      ("results", J.List (List.map row_json b.rows));
    ]

(* Printed section (`bench/main.exe throughput`). *)
let run () =
  print_endline "Sharded multi-tracee monitor throughput";
  print_endline "---------------------------------------";
  Printf.printf "%d NGINX tracees, full BASTION, modelled 3 GHz clock\n\n" tracees;
  Printf.printf "  %-8s %-16s %-16s %-10s %s\n" "shards" "makespan cycles"
    "traps/sec" "speedup" "matches serial";
  List.iter
    (fun r ->
      Printf.printf "  %-8d %-16d %-16.0f %-10.2f %b\n" r.shards r.makespan_cycles
        (traps_per_sec ~traps:r.total_traps ~cycles:r.makespan_cycles)
        (speedup r) r.matches_serial)
    (Lazy.force bench).rows;
  print_newline ()
