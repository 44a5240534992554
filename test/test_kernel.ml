(* Unit tests for the kernel substrate: syscall table, seccomp, VFS,
   sockets, per-syscall semantics, trap flows, the ptrace tracer. *)

module B = Sil.Builder
open Sil.Operand

let i64 = Sil.Types.I64
let ptr = Sil.Types.Ptr Sil.Types.I64

(* --- syscall table ----------------------------------------------------- *)

let test_syscall_table () =
  Alcotest.(check int) "execve number" 59 (Kernel.Syscalls.number "execve");
  Alcotest.(check int) "mprotect number" 10 (Kernel.Syscalls.number "mprotect");
  Alcotest.(check string) "name roundtrip" "accept4" (Kernel.Syscalls.name 288);
  Alcotest.(check string) "unknown name" "sys_9999" (Kernel.Syscalls.name 9999);
  Alcotest.(check int) "20 sensitive syscalls" 20
    (List.length Kernel.Syscalls.sensitive_numbers);
  Alcotest.(check bool) "mmap sensitive" true
    (Kernel.Syscalls.is_sensitive (Kernel.Syscalls.number "mmap"));
  Alcotest.(check bool) "open not sensitive" false
    (Kernel.Syscalls.is_sensitive (Kernel.Syscalls.number "open"));
  Alcotest.(check bool) "open is filesystem" true
    (Kernel.Syscalls.is_filesystem (Kernel.Syscalls.number "open"));
  Alcotest.(check int) "execve natural arity" 3
    (Kernel.Syscalls.natural_arity (Kernel.Syscalls.number "execve"));
  Alcotest.(check int) "mmap natural arity" 6
    (Kernel.Syscalls.natural_arity (Kernel.Syscalls.number "mmap"));
  match Kernel.Syscalls.category (Kernel.Syscalls.number "setuid") with
  | Kernel.Syscalls.Privilege_escalation -> ()
  | _ -> Alcotest.fail "setuid category"

(* --- seccomp ----------------------------------------------------------- *)

let test_seccomp () =
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Kill () in
  Kernel.Seccomp.set_rule f 1 Kernel.Seccomp.Allow;
  Kernel.Seccomp.set_rule f 2 Kernel.Seccomp.Trace;
  Alcotest.(check bool) "allow" true (Kernel.Seccomp.evaluate f 1 = Kernel.Seccomp.Allow);
  Alcotest.(check bool) "trace" true (Kernel.Seccomp.evaluate f 2 = Kernel.Seccomp.Trace);
  Alcotest.(check bool) "default kill" true
    (Kernel.Seccomp.evaluate f 3 = Kernel.Seccomp.Kill);
  Alcotest.(check int) "evaluations counted" 3 (Kernel.Seccomp.evaluations f);
  let g = Kernel.Seccomp.copy f in
  Kernel.Seccomp.set_rule g 1 Kernel.Seccomp.Kill;
  Alcotest.(check bool) "copy isolated" true
    (Kernel.Seccomp.rule f 1 = Kernel.Seccomp.Allow);
  let al = Kernel.Seccomp.allowlist [ 5; 6 ] in
  Alcotest.(check bool) "allowlist allows" true
    (Kernel.Seccomp.evaluate al 5 = Kernel.Seccomp.Allow);
  Alcotest.(check bool) "allowlist kills" true
    (Kernel.Seccomp.evaluate al 7 = Kernel.Seccomp.Kill)

(* --- vfs / net --------------------------------------------------------- *)

let test_vfs () =
  let v = Kernel.Vfs.create () in
  Kernel.Vfs.add_file v "/a" ~size_words:10;
  Alcotest.(check bool) "exists" true (Kernel.Vfs.exists v "/a");
  Alcotest.(check bool) "missing" false (Kernel.Vfs.exists v "/b");
  Alcotest.(check int64) "chmod ok" 0L (Kernel.Vfs.chmod v "/a" 0o755);
  Alcotest.(check int64) "chmod enoent" (-2L) (Kernel.Vfs.chmod v "/b" 0o755);
  match Kernel.Vfs.lookup v "/a" with
  | Some f ->
    Alcotest.(check int) "size" 10 f.size_words;
    Alcotest.(check int) "mode updated" 0o755 f.mode
  | None -> Alcotest.fail "lookup"

let test_net () =
  let n = Kernel.Net.create () in
  Kernel.Net.listen n 80;
  Alcotest.(check int) "empty queue" 0 (Kernel.Net.pending n 80);
  ignore (Kernel.Net.enqueue n 80 ~request_words:4 ~payload:"GET");
  ignore (Kernel.Net.enqueue n 80 ~request_words:4 ~payload:"GET");
  Alcotest.(check int) "two pending" 2 (Kernel.Net.pending n 80);
  (match Kernel.Net.accept n 80 with
  | Some c -> Alcotest.(check int) "req words" 4 c.request_words
  | None -> Alcotest.fail "accept");
  ignore (Kernel.Net.accept n 80);
  Alcotest.(check bool) "drained" true (Kernel.Net.accept n 80 = None);
  (* Enqueue before listen also works (drivers preload connections). *)
  ignore (Kernel.Net.enqueue n 8080 ~request_words:1 ~payload:"x");
  Alcotest.(check int) "pre-listen enqueue" 1 (Kernel.Net.pending n 8080)

(* --- per-syscall semantics --------------------------------------------- *)

let run_kernel_prog mk =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  mk pb;
  let prog = B.build pb ~entry:"main" in
  Sil.Validate.check_exn prog;
  let machine = Machine.create prog in
  let proc = Kernel.boot machine in
  (machine, proc)

let test_file_io () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        B.global pb "g_n" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let fd = B.local fb "fd" i64 in
        let n = B.local fb "n" i64 in
        let total = B.local fb "total" i64 in
        B.call fb ~dst:fd "open" [ Cstr "/data/file"; const 0 ];
        B.set fb total (const 0);
        B.block fb "loop";
        B.call fb ~dst:n "read" [ Var fd; Null; const 100 ];
        let more = B.local fb "more" i64 in
        B.binop fb more Sil.Instr.Gt (Var n) (const 0);
        B.branch fb (Var more) "acc" "done";
        B.block fb "acc";
        B.binop fb total Sil.Instr.Add (Var total) (Var n);
        B.jump fb "loop";
        B.block fb "done";
        B.call fb "close" [ Var fd ];
        B.store fb (Sil.Place.Lglobal "g_n") (Var total);
        B.halt fb;
        B.seal fb)
  in
  Kernel.Vfs.add_file proc.vfs "/data/file" ~size_words:250;
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int64) "all words read in chunks" 250L
    (Machine.peek machine (Machine.global_address machine "g_n"));
  Alcotest.(check int) "io accounted" 250 proc.io_words_in

let test_open_enoent () =
  let machine, _ =
    run_kernel_prog (fun pb ->
        B.global pb "g_fd" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let fd = B.local fb "fd" i64 in
        B.call fb ~dst:fd "open" [ Cstr "/missing"; const 0 ];
        B.store fb (Sil.Place.Lglobal "g_fd") (Var fd);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int64) "-ENOENT" (-2L)
    (Machine.peek machine (Machine.global_address machine "g_fd"))

let test_socket_lifecycle () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        B.global pb "g_served" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let s = B.local fb "s" i64 in
        let c = B.local fb "c" i64 in
        let served = B.local fb "served" i64 in
        let got = B.local fb "got" i64 in
        B.call fb ~dst:s "socket" [ const 2; const 1; const 0 ];
        B.call fb "bind" [ Var s; const 443 ];
        B.call fb "listen" [ Var s; const 16 ];
        B.set fb served (const 0);
        B.block fb "loop";
        B.call fb ~dst:c "accept" [ Var s; Null; const 2 ];
        B.binop fb got Sil.Instr.Ge (Var c) (const 0);
        B.branch fb (Var got) "serve" "done";
        B.block fb "serve";
        B.call fb "write" [ Var c; Null; const 10 ];
        B.call fb "close" [ Var c ];
        B.binop fb served Sil.Instr.Add (Var served) (const 1);
        B.jump fb "loop";
        B.block fb "done";
        B.store fb (Sil.Place.Lglobal "g_served") (Var served);
        B.halt fb;
        B.seal fb)
  in
  for _ = 1 to 5 do
    ignore (Kernel.Net.enqueue proc.net 443 ~request_words:2 ~payload:"hi")
  done;
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int64) "served all pending" 5L
    (Machine.peek machine (Machine.global_address machine "g_served"));
  Alcotest.(check int) "bytes out" 50 proc.io_words_out;
  Alcotest.(check bool) "serve window marked" true (proc.serve_start_cycles <> None)

let test_exec_log_and_hook () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        B.call fb "setuid" [ const 123 ];
        B.call fb "execve" [ Cstr "/bin/true"; Null; Null ];
        B.halt fb;
        B.seal fb)
  in
  let seen = ref [] in
  proc.on_syscall_executed <-
    Some (fun ~sysno ~args:_ ~path -> seen := (sysno, path) :: !seen);
  Testlib.check_exit (Machine.run machine);
  (match Kernel.Process.executed proc "execve" with
  | [ e ] -> Alcotest.(check (option string)) "path logged" (Some "/bin/true") e.ev_path
  | _ -> Alcotest.fail "expected one execve event");
  Alcotest.(check int) "setuid counted" 1
    (Kernel.Process.syscall_count proc (Kernel.Syscalls.number "setuid"));
  Alcotest.(check bool) "hook saw both" true (List.length !seen >= 2)

let test_trap_flow_kill_and_verdict () =
  let build () =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        B.call fb "mprotect" [ Null; const 4096; const 5 ];
        B.halt fb;
        B.seal fb)
  in
  (* KILL rule terminates the program. *)
  let machine, proc = build () in
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Allow () in
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "mprotect") Kernel.Seccomp.Kill;
  proc.filter <- Some f;
  Testlib.check_fault (Machine.run machine) Testlib.is_seccomp_kill "kill";
  (* TRACE delivers the trap to the hook; Deny kills with the context. *)
  let machine, proc = build () in
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Allow () in
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "mprotect") Kernel.Seccomp.Trace;
  proc.filter <- Some f;
  let trapped = ref 0 in
  proc.tracer_hook <-
    Some
      (fun _proc ~sysno ~args ->
        incr trapped;
        Alcotest.(check int) "sysno" (Kernel.Syscalls.number "mprotect") sysno;
        Alcotest.(check int64) "arg1" 4096L (Machine.Args.get args 1);
        Kernel.Process.Deny { context = "test"; detail = "nope" });
  Testlib.check_fault (Machine.run machine)
    (Testlib.is_monitor_kill ~context:"test")
    "deny";
  Alcotest.(check int) "trap delivered once" 1 !trapped;
  Alcotest.(check int) "trap counted" 1 proc.trap_count

(* --- ptrace ------------------------------------------------------------ *)

let test_ptrace_tracer () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "leaf" ~params:[ ("x", i64) ] in
        B.call fb "mmap" [ Null; Var (B.param fb 0); const 3; const 2; const (-1); const 0 ];
        B.ret fb None;
        B.seal fb;
        let fb = B.func pb "mid" ~params:[ ("x", i64) ] in
        B.call fb "leaf" [ Var (B.param fb 0) ];
        B.ret fb None;
        B.seal fb;
        let fb = B.func pb "main" ~params:[] in
        B.call fb "mid" [ const 8192 ];
        B.halt fb;
        B.seal fb)
  in
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Allow () in
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "mmap") Kernel.Seccomp.Trace;
  proc.filter <- Some f;
  let checked = ref false in
  proc.tracer_hook <-
    Some
      (fun proc ~sysno:_ ~args:_ ->
        checked := true;
        let tracer = proc.tracer in
        let regs = Kernel.Ptrace.getregs tracer in
        Alcotest.(check int) "sysno via regs" (Kernel.Syscalls.number "mmap") regs.sysno;
        Alcotest.(check int64) "size arg" 8192L (Machine.Args.get regs.args 1);
        let nfuncs = Array.length (Machine.Layout.image machine.layout).funcs in
        let frames =
          (Kernel.Ptrace.snapshot tracer ~span_words:(Array.make nfuncs 0)).sn_frames
        in
        Alcotest.(check (list string)) "stack funcs" [ "leaf"; "mid"; "main" ]
          (List.map (fun (fv : Kernel.Ptrace.frame_view) -> fv.fv_func) frames);
        (* Unwound tokens map back to the correct caller callsites. *)
        (match frames with
        | leaf :: _ -> (
          match leaf.fv_ret_token with
          | Some token -> (
            match Kernel.Ptrace.callsite_of_token tracer token with
            | Some loc -> Alcotest.(check string) "caller is mid" "mid" loc.func
            | None -> Alcotest.fail "token did not decode")
          | None -> Alcotest.fail "leaf has no ret token")
        | [] -> Alcotest.fail "no frames");
        Alcotest.(check bool) "costs charged" true (tracer.words_read > 0);
        Kernel.Process.Continue);
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check bool) "tracer ran" true !checked

let suites =
  [
    ( "kernel",
      [
        Alcotest.test_case "syscall table" `Quick test_syscall_table;
        Alcotest.test_case "seccomp engine" `Quick test_seccomp;
        Alcotest.test_case "vfs" `Quick test_vfs;
        Alcotest.test_case "net" `Quick test_net;
        Alcotest.test_case "file io semantics" `Quick test_file_io;
        Alcotest.test_case "open ENOENT" `Quick test_open_enoent;
        Alcotest.test_case "socket lifecycle" `Quick test_socket_lifecycle;
        Alcotest.test_case "exec log + executed hook" `Quick test_exec_log_and_hook;
        Alcotest.test_case "trap flow: kill and verdicts" `Quick
          test_trap_flow_kill_and_verdict;
        Alcotest.test_case "ptrace tracer" `Quick test_ptrace_tracer;
      ] );
  ]

(* Appended: §7.1 policy inheritance across fork/clone. *)
let test_policy_inheritance () =
  let machine, proc =
    run_kernel_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        B.call fb "clone" [ const 0 ];
        B.call fb "fork" [];
        B.halt fb;
        B.seal fb)
  in
  let f = Kernel.Seccomp.create ~default:Kernel.Seccomp.Allow () in
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "execve") Kernel.Seccomp.Kill;
  proc.filter <- Some f;
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int) "two children" 2 (List.length proc.children);
  List.iter
    (fun (child : Kernel.Process.t) ->
      match child.filter with
      | Some cf ->
        Alcotest.(check bool) "child inherits KILL rule" true
          (Kernel.Seccomp.rule cf (Kernel.Syscalls.number "execve") = Kernel.Seccomp.Kill)
      | None -> Alcotest.fail "child has no filter")
    proc.children;
  (* Copies are isolated: tightening the parent later does not leak. *)
  Kernel.Seccomp.set_rule f (Kernel.Syscalls.number "mmap") Kernel.Seccomp.Kill;
  List.iter
    (fun (child : Kernel.Process.t) ->
      match child.filter with
      | Some cf ->
        Alcotest.(check bool) "child filter isolated" true
          (Kernel.Seccomp.rule cf (Kernel.Syscalls.number "mmap") = Kernel.Seccomp.Allow)
      | None -> ())
    proc.children

let suites =
  match suites with
  | [ (name, cases) ] ->
    [ (name, cases @ [ Alcotest.test_case "fork/clone policy inheritance" `Quick test_policy_inheritance ]) ]
  | other -> other

(* Dispatch straight into a booted process, outside any run. *)
let booted () =
  run_kernel_prog (fun pb ->
      let fb = B.func pb "main" ~params:[] in
      B.halt fb;
      B.seal fb)

let sys name = Kernel.Syscalls.number name

let test_read_negative_count_on_connection () =
  let machine, proc = booted () in
  ignore (Kernel.Net.enqueue proc.net 80 ~request_words:12 ~payload:"GET");
  let conn =
    match Kernel.Net.accept proc.net 80 with
    | Some c -> Kernel.Process.alloc_fd proc (Conn c)
    | None -> Alcotest.fail "no connection"
  in
  let before = machine.stats.cycles in
  let n =
    Kernel.dispatch proc machine ~sysno:(sys "read")
      ~args:(Machine.Args.of_array [| Int64.of_int conn; 0L; -1000L |])
  in
  Alcotest.(check int64) "reads nothing" 0L n;
  Alcotest.(check int) "charges only kernel entry" machine.config.cost.syscall_base
    (machine.stats.cycles - before);
  Alcotest.(check int) "no words in" 0 proc.io_words_in

let test_lseek_negative_offset () =
  let machine, proc = booted () in
  Kernel.Vfs.add_file proc.vfs "/f" ~size_words:250;
  let fd =
    match Kernel.Vfs.lookup proc.vfs "/f" with
    | Some file -> Int64.of_int (Kernel.Process.alloc_fd proc (File { file; pos = 0 }))
    | None -> Alcotest.fail "no file"
  in
  Alcotest.(check int64) "-EINVAL" (-22L)
    (Kernel.dispatch proc machine ~sysno:(sys "lseek") ~args:(Machine.Args.of_array [| fd; -100L; 0L |]));
  let before = machine.stats.cycles in
  Alcotest.(check int64) "offset unchanged: the whole file" 250L
    (Kernel.dispatch proc machine ~sysno:(sys "read") ~args:(Machine.Args.of_array [| fd; 0L; 1000L |]));
  Alcotest.(check int) "I/O charged for the words read"
    (machine.config.cost.syscall_base + (250 * machine.config.cost.io_per_word))
    (machine.stats.cycles - before);
  Alcotest.(check int64) "a non-negative offset still seeks" 200L
    (Kernel.dispatch proc machine ~sysno:(sys "lseek") ~args:(Machine.Args.of_array [| fd; 200L; 0L |]));
  Alcotest.(check int64) "reads from there" 50L
    (Kernel.dispatch proc machine ~sysno:(sys "read") ~args:(Machine.Args.of_array [| fd; 0L; 1000L |]))

(* An allowed call that touches no fd goes through seccomp, the count
   and its handler without allocating. *)
let test_allowed_dispatch_allocates_nothing () =
  let machine, proc = booted () in
  let f = Kernel.Seccomp.create () in
  Kernel.Seccomp.set_rule f (sys "mprotect") Kernel.Seccomp.Trace;
  proc.filter <- Some f;
  let args = Machine.Args.of_array [| 77L; 0L; 0L; 0L; 0L; 0L |] in
  List.iter
    (fun name ->
      let sysno = sys name in
      (* The first call allocates the process's count table. *)
      ignore (Kernel.dispatch proc machine ~sysno ~args);
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Kernel.dispatch proc machine ~sysno ~args)
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.)) (name ^ ": minor words over 1000 dispatches") 0. words)
    [ "getpid"; "brk"; "close" ];
  Alcotest.(check int) "all counted" 1001 (Kernel.Process.syscall_count proc (sys "getpid"))

let suites =
  match suites with
  | [ (name, cases) ] ->
    [
      ( name,
        cases
        @ [
            Alcotest.test_case "read: negative count on a connection" `Quick
              test_read_negative_count_on_connection;
            Alcotest.test_case "lseek: negative offset is EINVAL" `Quick
              test_lseek_negative_offset;
            Alcotest.test_case "allowed dispatch allocates nothing" `Quick
              test_allowed_dispatch_allocates_nothing;
          ] );
    ]
  | other -> other
