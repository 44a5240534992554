(* Ablation benches for the design choices DESIGN.md calls out:

   1. the accept/accept4 sockaddr fast path (§9.2);
   2. running the monitor in the kernel instead of over ptrace (§11.2);
   3. shadow-memory probe behaviour under load (both table sides);
   4. control-flow verification cost as a function of stack depth;
   5. the trap fast path's CT+CF verdict cache, on vs off. *)

module D = Workloads.Drivers
module B = Sil.Builder

(* --- 1. sockaddr fast path ------------------------------------------ *)

let run_nginx_with ~sockaddr_fastpath =
  let params = Workloads.Nginx_model.default in
  let prog = Workloads.Nginx_model.build params in
  let protected_prog = Bastion.Api.protect prog in
  let session =
    Bastion.Api.launch
      ~machine_config:{ Machine.default_config with cet = true }
      ~monitor_config:{ Bastion.Monitor.default_config with sockaddr_fastpath }
      protected_prog ()
  in
  Workloads.Nginx_model.setup params session.process;
  (match Machine.run session.machine with
  | Machine.Exited _ -> ()
  | Machine.Faulted f -> failwith (Machine.fault_to_string f));
  (session, Kernel.Process.serve_cycles session.process)

let sockaddr_ablation () =
  print_endline "-- ablation: accept/accept4 sockaddr fast path (§9.2) --";
  let _, fast = run_nginx_with ~sockaddr_fastpath:true in
  let _, slow = run_nginx_with ~sockaddr_fastpath:false in
  Printf.printf
    "  NGINX serve cycles: fastpath %d, generic extended check %d (+%.3f%%)\n" fast slow
    (float_of_int (slow - fast) /. float_of_int fast *. 100.0)

(* --- 2. in-kernel monitor ------------------------------------------- *)

let in_kernel_ablation () =
  print_endline "-- ablation: in-kernel monitor vs ptrace (§11.2) --";
  let app = D.nginx () in
  let base = D.run app D.Vanilla in
  let ptrace_fs = D.run app (D.Bastion_fs Bastion.Monitor.Fs_full) in
  let kernel_fs =
    D.run ~cost:Machine.Cost.in_kernel_monitor app (D.Bastion_fs Bastion.Monitor.Fs_full)
  in
  let kernel_base = D.run ~cost:Machine.Cost.in_kernel_monitor app D.Vanilla in
  let ovh b m = D.overhead_pct ~baseline:b m ~higher_is_better:true in
  Printf.printf "  NGINX + fs syscalls, ptrace monitor:    %.2f%% overhead\n"
    (ovh base ptrace_fs);
  Printf.printf "  NGINX + fs syscalls, in-kernel monitor: %.2f%% overhead\n"
    (ovh kernel_base kernel_fs)

(* --- 3. shadow-memory behaviour ------------------------------------- *)

let shadow_ablation () =
  print_endline "-- ablation: shadow-memory occupancy and probe length --";
  let session, _ = run_nginx_with ~sockaddr_fastpath:true in
  let shadow = session.runtime.shadow in
  let lookup_probes, insert_probes, inserts =
    Bastion.Runtime.shadow_probe_stats session.runtime
  in
  Printf.printf "  entries: %d, capacity: %d, mean probes/lookup: %.2f\n"
    (Bastion.Shadow_memory.entry_count shadow)
    (Bastion.Shadow_memory.capacity shadow)
    lookup_probes;
  Printf.printf "  inserts: %d, mean probes/insert: %.2f\n" inserts insert_probes

(* --- 4. stack-depth sweep ------------------------------------------- *)

let i64 = Sil.Types.I64

(* A synthetic program whose single mmap callsite sits below a direct
   call chain of configurable depth. *)
let chain_program depth traps =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  let open Sil.Operand in
  let leaf = Printf.sprintf "level%d" depth in
  let fb = B.func pb leaf ~params:[ ("n", i64) ] in
  B.call fb "mmap" [ Null; Var (B.param fb 0); const 3; const 2; const (-1); const 0 ];
  B.ret fb None;
  B.seal fb;
  for i = depth - 1 downto 1 do
    let fb = B.func pb (Printf.sprintf "level%d" i) ~params:[ ("n", i64) ] in
    B.call fb (Printf.sprintf "level%d" (i + 1)) [ Var (B.param fb 0) ];
    B.ret fb None;
    B.seal fb
  done;
  let fb = B.func pb "main" ~params:[] in
  Workloads.Appkit.counted_loop fb ~tag:"traps" ~count:traps (fun fb ->
      B.call fb "level1" [ const 4096 ]);
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let depth_sweep () =
  print_endline "-- ablation: CF+AI verification cost vs stack depth --";
  let traps = 200 in
  List.iter
    (fun depth ->
      let prog = chain_program depth traps in
      let run contexts =
        let protected_prog = Bastion.Api.protect prog in
        let session =
          Bastion.Api.launch
            ~monitor_config:{ Bastion.Monitor.default_config with contexts }
            protected_prog ()
        in
        (match Machine.run session.machine with
        | Machine.Exited _ -> ()
        | Machine.Faulted f -> failwith (Machine.fault_to_string f));
        session.machine.stats.cycles
      in
      let ct_only = run { Bastion.Monitor.ct = true; cf = false; ai = false } in
      let full = run Bastion.Monitor.all_contexts in
      Printf.printf "  depth %2d: CF+AI adds %5d cycles/trap\n" depth
        ((full - ct_only) / traps))
    [ 2; 4; 8; 16; 32 ]

(* --- 5. trap verdict cache ------------------------------------------ *)

(* The fast-path artifact's rows, rendered: the runs are measured once. *)
let trap_cache_ablation () =
  print_endline "-- ablation: trap fast path (CT+CF verdict cache) --";
  Fastpath.print_ablation ()

let run () =
  print_endline "== Ablation benches ==";
  sockaddr_ablation ();
  in_kernel_ablation ();
  shadow_ablation ();
  depth_sweep ();
  trap_cache_ablation ();
  print_newline ()
