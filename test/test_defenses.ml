(* Unit tests for the baseline defenses: LLVM CFI, plain syscall
   filtering, debloating — including the bypass behaviours §10 relies
   on for the comparison. *)

module B = Sil.Builder
open Sil.Operand

let i64 = Sil.Types.I64
let ptr = Sil.Types.Ptr Sil.Types.I64

(* Victim with a 3-arg indirect callsite; plugin_a/plugin_b share its
   type, lone_helper has a different arity, rogue is never
   address-taken. *)
let cfi_fixture () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_fp" ptr (Sil.Prog.Fptr "plugin_a");
  B.global pb "g_fp2" ptr (Sil.Prog.Fptr "plugin_b");
  List.iter
    (fun name ->
      let fb = B.func pb name ~params:[ ("a", i64); ("b", i64); ("c", i64) ] in
      let x = B.local fb "x" i64 in
      B.binop fb x Sil.Instr.Add (Var (B.param fb 0)) (Var (B.param fb 1));
      B.ret fb (Some (Var x));
      B.seal fb)
    [ "plugin_a"; "plugin_b" ];
  let fb = B.func pb "lone_helper" ~params:[ ("a", i64) ] in
  B.ret fb (Some (Var (B.param fb 0)));
  B.seal fb;
  let fb = B.func pb "rogue" ~params:[ ("a", i64); ("b", i64); ("c", i64) ] in
  B.ret fb (Some (const 666));
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  let h = B.local fb "h" ptr in
  B.load fb h (Sil.Place.Lglobal "g_fp");
  B.call_indirect fb (Var h) [ const 1; const 2; const 3 ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let run_with_cfi ?poke prog =
  let machine, _proc = Bastion.Api.launch_unprotected prog in
  Defenses.Llvm_cfi.install (Defenses.Llvm_cfi.build prog) machine;
  (match poke with
  | Some f ->
    let fired = ref false in
    machine.on_instr <-
      Some
        (fun m (loc : Sil.Loc.t) ->
          if (not !fired) && String.equal loc.func "main" then begin
            fired := true;
            f m
          end)
  | None -> ());
  Machine.run machine

let test_cfi_benign () = Testlib.check_exit (run_with_cfi (cfi_fixture ()))

let test_cfi_same_class_redirect_passes () =
  (* plugin_b has the same signature class and is address-taken: a
     redirect to it is invisible to type-based CFI (the COOP story). *)
  let outcome =
    run_with_cfi
      ~poke:(fun m ->
        Machine.poke m (Machine.global_address m "g_fp")
          (Machine.function_address m "plugin_b"))
      (cfi_fixture ())
  in
  Testlib.check_exit outcome

let test_cfi_blocks_arity_mismatch () =
  let outcome =
    run_with_cfi
      ~poke:(fun m ->
        Machine.poke m (Machine.global_address m "g_fp")
          (Machine.function_address m "lone_helper"))
      (cfi_fixture ())
  in
  Testlib.check_fault outcome Testlib.is_cfi_violation "cfi"

let test_cfi_blocks_non_address_taken () =
  let outcome =
    run_with_cfi
      ~poke:(fun m ->
        Machine.poke m (Machine.global_address m "g_fp")
          (Machine.function_address m "rogue"))
      (cfi_fixture ())
  in
  Testlib.check_fault outcome Testlib.is_cfi_violation "cfi"

let test_cfi_stub_bypass () =
  (* mprotect's C prototype matches the 3-arg callsite and lazy binding
     takes every stub's address: CFI passes — exactly the CsCFI bypass.
     (It still dies later, at the kernel, only if something else is
     deployed; with CFI alone it executes.) *)
  let prog = cfi_fixture () in
  let machine, proc = Bastion.Api.launch_unprotected prog in
  Defenses.Llvm_cfi.install (Defenses.Llvm_cfi.build prog) machine;
  let fired = ref false in
  machine.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        if (not !fired) && String.equal loc.func "main" then begin
          fired := true;
          Machine.poke m (Machine.global_address m "g_fp")
            (Machine.function_address m "mprotect")
        end);
  Testlib.check_exit (Machine.run machine);
  Alcotest.(check int) "mprotect executed under CFI" 1
    (List.length (Kernel.Process.executed proc "mprotect"))

(* --- plain syscall filtering ------------------------------------------- *)

let test_filter_allowlist_derivation () =
  let prog = cfi_fixture () in
  let allow = Defenses.Syscall_filter.allowlist_of_program prog in
  Alcotest.(check (list int)) "nothing used, nothing allowed" [] allow;
  let prog = Testlib.exec_program () in
  let allow = Defenses.Syscall_filter.allowlist_of_program prog in
  Alcotest.(check bool) "execve allowed" true
    (List.mem (Kernel.Syscalls.number "execve") allow);
  Alcotest.(check bool) "setuid not allowed" false
    (List.mem (Kernel.Syscalls.number "setuid") allow)

let test_filter_lets_corrupted_args_through () =
  (* The paper's core criticism: an allowlist cannot stop a *used*
     syscall invoked with corrupted arguments. *)
  let prog = Testlib.exec_program () in
  let machine, proc = Bastion.Api.launch_unprotected prog in
  Defenses.Syscall_filter.install prog proc;
  let evil = Machine.intern_string machine "/bin/sh" in
  let fired = ref false in
  machine.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        if (not !fired) && String.equal loc.func "do_exec" then begin
          fired := true;
          Machine.poke m (Machine.global_address m "gctx") evil
        end);
  Testlib.check_exit (Machine.run machine);
  match Kernel.Process.executed proc "execve" with
  | [ e ] -> Alcotest.(check (option string)) "shell ran" (Some "/bin/sh") e.ev_path
  | _ -> Alcotest.fail "expected the corrupted execve to pass the filter"

(* --- debloating ---------------------------------------------------------- *)

let test_debloat () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_fp" ptr (Sil.Prog.Fptr "kept_indirect");
  let fb = B.func pb "kept_direct" ~params:[] in
  B.call fb "mmap" [ Null; const 4096; const 3; const 2; const (-1); const 0 ];
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "kept_indirect" ~params:[] in
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "dead_code" ~params:[] in
  B.call fb "setuid" [ const 0 ];
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  B.call fb "kept_direct" [];
  B.halt fb;
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let debloated, removed = Defenses.Debloat.run prog in
  Alcotest.(check int) "one function removed" 1 removed;
  Alcotest.(check bool) "dead_code gone" false (Sil.Prog.mem_func debloated "dead_code");
  Alcotest.(check bool) "address-taken kept" true
    (Sil.Prog.mem_func debloated "kept_indirect");
  let surviving = Defenses.Debloat.surviving_syscalls prog in
  Alcotest.(check bool) "mmap survives (still used)" true
    (List.mem (Kernel.Syscalls.number "mmap") surviving);
  Alcotest.(check bool) "setuid eliminated with its only caller" false
    (List.mem (Kernel.Syscalls.number "setuid") surviving)

let suites =
  [
    ( "defenses",
      [
        Alcotest.test_case "CFI benign" `Quick test_cfi_benign;
        Alcotest.test_case "CFI same-class redirect passes" `Quick
          test_cfi_same_class_redirect_passes;
        Alcotest.test_case "CFI blocks arity mismatch" `Quick test_cfi_blocks_arity_mismatch;
        Alcotest.test_case "CFI blocks non-address-taken" `Quick
          test_cfi_blocks_non_address_taken;
        Alcotest.test_case "CFI stub bypass (CsCFI story)" `Quick test_cfi_stub_bypass;
        Alcotest.test_case "filter allowlist derivation" `Quick
          test_filter_allowlist_derivation;
        Alcotest.test_case "filter passes corrupted args" `Quick
          test_filter_lets_corrupted_args_through;
        Alcotest.test_case "debloat" `Quick test_debloat;
      ] );
  ]
