(* End-to-end smoke tests: the full pipeline (build -> protect ->
   launch -> run) on a small program, benign and under attack. *)

open Testlib

let test_benign_run () =
  let prog = exec_program () in
  let outcome, session = run_protected prog in
  check_exit outcome;
  (* The execve must have executed (it is legitimate). *)
  Alcotest.(check int)
    "execve executed" 1
    (List.length (Kernel.Process.executed session.process "execve"));
  Alcotest.(check int) "no denials" 0 (List.length (Bastion.Monitor.denials session.monitor))

let test_unprotected_run () =
  let prog = exec_program () in
  let machine, proc = Bastion.Api.launch_unprotected prog in
  check_exit (Machine.run machine);
  Alcotest.(check int)
    "execve executed" 1
    (List.length (Kernel.Process.executed proc "execve"))

let test_calltype_stats () =
  let prog = exec_program () in
  let p = Bastion.Api.protect prog in
  let stats = Bastion.Api.stats p in
  Alcotest.(check bool) "has sensitive callsites" true (stats.sensitive_callsites >= 2);
  Alcotest.(check int) "no indirect sensitive" 0 stats.sensitive_indirect;
  Alcotest.(check bool) "has write_mem sites" true (stats.write_mem_sites > 0);
  Alcotest.(check bool) "has bind sites" true (stats.bind_mem_sites > 0)

(* Corrupt the global exec context's path before do_exec loads it: the
   argument-integrity context must catch the mismatch between memory and
   the shadow. *)
let test_attack_corrupt_global_arg () =
  let prog = exec_program () in
  let protected_prog = Bastion.Api.protect prog in
  let session = Bastion.Api.launch protected_prog () in
  let m = session.machine in
  let evil = Machine.intern_string m "/bin/sh" in
  let gctx = Machine.global_address m "gctx" in
  let fired = ref false in
  m.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        if (not !fired) && String.equal loc.func "do_exec" then begin
          fired := true;
          Machine.poke m gctx evil  (* overwrite gctx.path *)
        end);
  let outcome = Machine.run m in
  check_fault outcome (is_monitor_kill ~context:"argument-integrity") "argument-integrity";
  Alcotest.(check int)
    "execve blocked" 0
    (List.length (Kernel.Process.executed session.process "execve"))

(* Call a syscall the program never uses: seccomp kills it outright
   (not-callable under the Call-Type context / §11.3). *)
let test_not_callable_killed () =
  let prog = exec_program () in
  let protected_prog = Bastion.Api.protect prog in
  let session = Bastion.Api.launch protected_prog () in
  let m = session.machine in
  (* Redirect the benign indirect call to the setuid stub: gctx handler
     pointer now targets a never-used syscall. *)
  let ghandler = Machine.global_address m "ghandler" in
  let setuid_addr = Machine.function_address m "setuid" in
  let fired = ref false in
  m.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        if (not !fired) && String.equal loc.func "main" then begin
          fired := true;
          Machine.poke m ghandler setuid_addr
        end);
  let outcome = Machine.run m in
  check_fault outcome is_seccomp_kill "seccomp-kill"

(* Hijack a return address to reach do_exec's execve gadget: without
   CET, control flow reaches the syscall, and the monitor's control-flow
   (or argument) context must stop it. *)
let test_rop_blocked () =
  let prog = exec_program () in
  let protected_prog = Bastion.Api.protect prog in
  let session = Bastion.Api.launch protected_prog () in
  let m = session.machine in
  let fired = ref false in
  m.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        if (not !fired) && String.equal loc.func "compute" then begin
          fired := true;
          (* Overwrite protect_buf's return address with the entry of
             do_exec's body (a classic return-to-function ROP). *)
          match Machine.frames m with
          | frame :: _ ->
            let gadget = Machine.instr_address m (Sil.Loc.make "do_exec" "entry" 0) in
            Machine.poke m (Int64.of_int frame.ret_slot) gadget
          | [] -> ()
        end);
  let outcome = Machine.run m in
  check_fault outcome (fun f -> is_monitor_kill f) "monitor-kill";
  Alcotest.(check int)
    "execve blocked" 0
    (List.length (Kernel.Process.executed session.process "execve"))

(* Same ROP with CET enabled: the shadow stack catches it at the return,
   before the syscall is even reached. *)
let test_rop_cet () =
  let prog = exec_program () in
  let protected_prog = Bastion.Api.protect prog in
  let session =
    Bastion.Api.launch
      ~machine_config:{ Machine.default_config with cet = true }
      protected_prog ()
  in
  let m = session.machine in
  let fired = ref false in
  m.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        if (not !fired) && String.equal loc.func "compute" then begin
          fired := true;
          match Machine.frames m with
          | frame :: _ ->
            let gadget = Machine.instr_address m (Sil.Loc.make "do_exec" "entry" 0) in
            Machine.poke m (Int64.of_int frame.ret_slot) gadget
          | [] -> ()
        end);
  check_fault (Machine.run m) is_cet_violation "cet-violation"

let suites =
  [
    ( "smoke",
      [
        Alcotest.test_case "benign protected run" `Quick test_benign_run;
        Alcotest.test_case "unprotected run" `Quick test_unprotected_run;
        Alcotest.test_case "instrumentation stats" `Quick test_calltype_stats;
        Alcotest.test_case "corrupted global argument blocked" `Quick
          test_attack_corrupt_global_arg;
        Alcotest.test_case "not-callable syscall killed" `Quick test_not_callable_killed;
        Alcotest.test_case "ROP to execve blocked by monitor" `Quick test_rop_blocked;
        Alcotest.test_case "ROP caught by CET" `Quick test_rop_cet;
      ] );
  ]
