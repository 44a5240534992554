(* Unit tests for the machine: memory, layout, interpreter semantics,
   control transfers, CET, cost accounting. *)

module B = Sil.Builder
open Sil.Operand

let i64 = Sil.Types.I64
let ptr = Sil.Types.Ptr Sil.Types.I64

(* --- memory ----------------------------------------------------------- *)

let test_memory_words () =
  let m = Machine.Memory.create () in
  Alcotest.(check int64) "unmapped reads zero" 0L (Machine.Memory.read m 0x1000L);
  Machine.Memory.write m 0x1000L 42L;
  Alcotest.(check int64) "write/read" 42L (Machine.Memory.read m 0x1000L);
  Machine.Memory.write m 0x1000L 0L;
  Alcotest.(check int) "zero writes unmap" 0 (Machine.Memory.mapped_words m);
  Machine.Memory.write_block m 0x2000L [| 1L; 2L; 3L |];
  Alcotest.(check bool) "block roundtrip" true
    (Machine.Memory.read_block m 0x2000L 3 = [| 1L; 2L; 3L |])

let test_memory_strings () =
  let m = Machine.Memory.create () in
  let words = Machine.Memory.write_string m 0x3000L "hello" in
  Alcotest.(check int) "words written" 6 words;
  Alcotest.(check string) "string roundtrip" "hello" (Machine.Memory.read_string m 0x3000L);
  Alcotest.(check string) "empty string" "" (Machine.Memory.read_string m 0x9999L)

(* --- layout ----------------------------------------------------------- *)

let test_layout () =
  let prog = Testlib.exec_program () in
  let layout = Machine.Layout.build prog in
  (* Function entries resolve back to their functions. *)
  List.iter
    (fun (f : Sil.Func.t) ->
      let entry = Machine.Layout.func_entry layout f.fname in
      Alcotest.(check (option string))
        ("entry of " ^ f.fname) (Some f.fname)
        (Machine.Layout.func_of_entry_addr layout entry))
    (Sil.Prog.functions prog);
  (* A mid-function address is not a valid call target. *)
  let mid = Machine.Layout.addr_of_loc layout (Sil.Loc.make "main" "entry" 1) in
  Alcotest.(check (option string)) "mid-function not an entry" None
    (Machine.Layout.func_of_entry_addr layout mid);
  (* Globals get distinct addresses. *)
  let a1 = Machine.Layout.global_addr layout "gctx" in
  let a2 = Machine.Layout.global_addr layout "ghandler" in
  Alcotest.(check bool) "distinct global addrs" true (not (Int64.equal a1 a2))

let test_rodata_interning () =
  let prog = Testlib.exec_program () in
  let m = Machine.create prog in
  let a = Machine.intern_string m "/bin/id" in
  let b = Machine.intern_string m "/bin/id" in
  let c = Machine.intern_string m "/bin/ls" in
  Alcotest.(check int64) "idempotent" a b;
  Alcotest.(check bool) "distinct strings distinct addrs" true (not (Int64.equal a c));
  Alcotest.(check string) "contents" "/bin/id" (Machine.read_string m a)

(* Rodata is per machine.  [main] stores the addresses of the literals
   "x" and "y" in [g_x] and [g_y], evaluating "x" first when [g_order]
   is 0 and "y" first otherwise. *)
let literal_order_program () =
  let pb = B.program () in
  List.iter (fun g -> B.global pb g i64 Sil.Prog.Zero) [ "g_order"; "g_x"; "g_y" ];
  let fb = B.func pb "main" ~params:[] in
  let order = B.local fb "order" i64 in
  B.load fb order (Sil.Place.Lglobal "g_order");
  B.branch fb (Var order) "y_first" "x_first";
  B.block fb "x_first";
  B.store fb (Sil.Place.Lglobal "g_x") (Cstr "x");
  B.store fb (Sil.Place.Lglobal "g_y") (Cstr "y");
  B.halt fb;
  B.block fb "y_first";
  B.store fb (Sil.Place.Lglobal "g_y") (Cstr "y");
  B.store fb (Sil.Place.Lglobal "g_x") (Cstr "x");
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

(* A second machine of one image that evaluates the literals in the
   other order gets the addresses a machine of a fresh image gets for
   that order. *)
let test_rodata_per_machine () =
  let prog = literal_order_program () in
  let layout = Machine.Layout.build prog in
  let run ?layout order =
    let m = Machine.create ?layout prog in
    Machine.poke m (Machine.global_address m "g_order") order;
    Testlib.check_exit (Machine.run m);
    let addr g = Machine.peek m (Machine.global_address m g) in
    (m, (addr "g_x", addr "g_y"))
  in
  let first, x_first = run ~layout 0L in
  let second, y_first = run ~layout 1L in
  let _, fresh = run 1L in
  Alcotest.(check bool) "one image" true (first.layout == second.layout);
  Alcotest.(check (pair int64 int64)) "a fresh image's addresses" fresh y_first;
  Alcotest.(check bool) "the order moves them" true (x_first <> y_first);
  Alcotest.(check (pair string string)) "the strings" ("x", "y")
    (Machine.read_string second (fst y_first), Machine.read_string second (snd y_first));
  Alcotest.check_raises "another program's image"
    (Invalid_argument "Machine.create: the layout belongs to another program") (fun () ->
      ignore (Machine.create ~layout (literal_order_program ())))

(* --- interpreter ------------------------------------------------------ *)

(* Run main() and return the machine. *)
let run_prog mk =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  mk pb;
  let prog = B.build pb ~entry:"main" in
  Sil.Validate.check_exn prog;
  let machine = Machine.create prog in
  let proc = Kernel.boot machine in
  (machine, proc, Machine.run machine)

let test_arith_and_branches () =
  (* Computes 10! iteratively, stores it in a global. *)
  let machine, _, outcome =
    run_prog (fun pb ->
        B.global pb "g_result" i64 Sil.Prog.Zero;
        let fb = B.func pb "main" ~params:[] in
        let acc = B.local fb "acc" i64 in
        let i = B.local fb "i" i64 in
        let c = B.local fb "c" i64 in
        B.set fb acc (const 1);
        B.set fb i (const 1);
        B.block fb "head";
        B.binop fb c Sil.Instr.Le (Var i) (const 10);
        B.branch fb (Var c) "body" "done";
        B.block fb "body";
        B.binop fb acc Sil.Instr.Mul (Var acc) (Var i);
        B.binop fb i Sil.Instr.Add (Var i) (const 1);
        B.jump fb "head";
        B.block fb "done";
        B.store fb (Sil.Place.Lglobal "g_result") (Var acc);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit outcome;
  Alcotest.(check int64) "10!" 3628800L
    (Machine.peek machine (Machine.global_address machine "g_result"))

let test_call_return_values () =
  let machine, _, outcome =
    run_prog (fun pb ->
        B.global pb "g_out" i64 Sil.Prog.Zero;
        let fb = B.func pb "double" ~params:[ ("x", i64) ] in
        let y = B.local fb "y" i64 in
        B.binop fb y Sil.Instr.Add (Var (B.param fb 0)) (Var (B.param fb 0));
        B.ret fb (Some (Var y));
        B.seal fb;
        let fb = B.func pb "main" ~params:[] in
        let r = B.local fb "r" i64 in
        B.call fb ~dst:r "double" [ const 21 ];
        B.call fb ~dst:r "double" [ Var r ];
        B.store fb (Sil.Place.Lglobal "g_out") (Var r);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit outcome;
  Alcotest.(check int64) "nested doubling" 84L
    (Machine.peek machine (Machine.global_address machine "g_out"))

let test_recursion () =
  (* fib(12) via naive recursion exercises deep frames + returns. *)
  let machine, _, outcome =
    run_prog (fun pb ->
        B.global pb "g_out" i64 Sil.Prog.Zero;
        let fb = B.func pb "fib" ~params:[ ("n", i64) ] in
        let c = B.local fb "c" i64 in
        let a = B.local fb "a" i64 in
        let b = B.local fb "b" i64 in
        let t = B.local fb "t" i64 in
        B.binop fb c Sil.Instr.Lt (Var (B.param fb 0)) (const 2);
        B.branch fb (Var c) "base" "rec";
        B.block fb "base";
        B.ret fb (Some (Var (B.param fb 0)));
        B.block fb "rec";
        B.binop fb t Sil.Instr.Sub (Var (B.param fb 0)) (const 1);
        B.call fb ~dst:a "fib" [ Var t ];
        B.binop fb t Sil.Instr.Sub (Var (B.param fb 0)) (const 2);
        B.call fb ~dst:b "fib" [ Var t ];
        B.binop fb a Sil.Instr.Add (Var a) (Var b);
        B.ret fb (Some (Var a));
        B.seal fb;
        let fb = B.func pb "main" ~params:[] in
        let r = B.local fb "r" i64 in
        B.call fb ~dst:r "fib" [ const 12 ];
        B.store fb (Sil.Place.Lglobal "g_out") (Var r);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit outcome;
  Alcotest.(check int64) "fib 12" 144L
    (Machine.peek machine (Machine.global_address machine "g_out"))

let test_indirect_call_resolution () =
  let machine, _, outcome =
    run_prog (fun pb ->
        B.global pb "g_fp" ptr (Sil.Prog.Fptr "inc");
        B.global pb "g_out" i64 Sil.Prog.Zero;
        let fb = B.func pb "inc" ~params:[ ("x", i64) ] in
        let y = B.local fb "y" i64 in
        B.binop fb y Sil.Instr.Add (Var (B.param fb 0)) (const 1);
        B.ret fb (Some (Var y));
        B.seal fb;
        let fb = B.func pb "main" ~params:[] in
        let h = B.local fb "h" ptr in
        let r = B.local fb "r" i64 in
        B.load fb h (Sil.Place.Lglobal "g_fp");
        B.call_indirect fb ~dst:r (Var h) [ const 6 ];
        B.store fb (Sil.Place.Lglobal "g_out") (Var r);
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_exit outcome;
  Alcotest.(check int64) "indirect call result" 7L
    (Machine.peek machine (Machine.global_address machine "g_out"))

let test_bad_indirect_target_faults () =
  let _, _, outcome =
    run_prog (fun pb ->
        let fb = B.func pb "main" ~params:[] in
        let h = B.local fb "h" ptr in
        B.set fb h (const 0xdead);
        B.call_indirect fb (Var h) [];
        B.halt fb;
        B.seal fb)
  in
  Testlib.check_fault outcome
    (function Machine.Bad_indirect_target _ -> true | _ -> false)
    "bad-indirect-target"

let test_fuel_exhaustion () =
  let pb = B.program () in
  let fb = B.func pb "main" ~params:[] in
  B.block fb "spin";
  B.jump fb "spin";
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let machine = Machine.create ~config:{ Machine.default_config with fuel = 1000 } prog in
  Testlib.check_fault (Machine.run machine)
    (function Machine.Fuel_exhausted -> true | _ -> false)
    "fuel-exhausted"

let test_heap_alloc () =
  let prog = Testlib.exec_program () in
  let machine = Machine.create prog in
  let a = Machine.alloc_heap machine 8 in
  let b = Machine.alloc_heap machine 8 in
  Alcotest.(check int64) "bump by 8 words" (Int64.add a 64L) b

(* Return-address corruption transfers control for real (the ROP
   substrate), and CET catches exactly that. *)
let test_ret_token_semantics () =
  let build () =
    let pb = B.program () in
    Kernel.Syscalls.declare_stubs pb;
    B.global pb "g_out" i64 Sil.Prog.Zero;
    let fb = B.func pb "target" ~params:[] in
    B.store fb (Sil.Place.Lglobal "g_out") (const 777);
    B.call fb "exit" [ const 7 ];
    B.ret fb None;
    B.seal fb;
    let fb = B.func pb "victim" ~params:[ ("x", i64) ] in
    let y = B.local fb "y" i64 in
    B.binop fb y Sil.Instr.Add (Var (B.param fb 0)) (const 1);
    B.ret fb (Some (Var y));
    B.seal fb;
    let fb = B.func pb "main" ~params:[] in
    B.call fb "victim" [ const 1 ];
    B.halt fb;
    B.seal fb;
    B.build pb ~entry:"main"
  in
  let run cet =
    let machine = Machine.create ~config:{ Machine.default_config with cet } (build ()) in
    ignore (Kernel.boot machine);
    let fired = ref false in
    machine.on_instr <-
      Some
        (fun m (loc : Sil.Loc.t) ->
          if (not !fired) && String.equal loc.func "victim" then begin
            fired := true;
            match Machine.frames m with
            | frame :: _ ->
              Machine.poke m (Int64.of_int frame.ret_slot)
                (Machine.instr_address m (Sil.Loc.make "target" "entry" 0))
            | [] -> ()
          end);
    (machine, Machine.run machine)
  in
  (* Without CET the hijack lands in target(). *)
  let machine, outcome = run false in
  (match outcome with
  | Machine.Exited code -> Alcotest.(check int64) "exited via gadget" 7L code
  | Machine.Faulted f -> Alcotest.failf "unexpected fault %s" (Machine.fault_to_string f));
  Alcotest.(check int64) "gadget executed" 777L
    (Machine.peek machine (Machine.global_address machine "g_out"));
  (* With CET the return is checked. *)
  let _, outcome = run true in
  Testlib.check_fault outcome Testlib.is_cet_violation "cet"

(* The return-token edge cases the interpreter's cursor must keep.
   [hijack_victim build token] runs [build ()] without CET and, at the
   first instruction of [victim], overwrites victim's return-address
   word with [token m]; it returns the machine, the outcome, every
   location [on_instr] reported, and the caller's frame base at the
   hijack. *)
let hijack_victim build token =
  let machine = Machine.create (build ()) in
  ignore (Kernel.boot machine);
  let seen = ref [] and caller_base = ref 0L in
  machine.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        seen := loc :: !seen;
        if String.equal loc.func "victim" && Int64.equal !caller_base 0L then
          match Machine.frames m with
          | frame :: caller :: _ ->
            caller_base := Int64.of_int caller.frame_base;
            Machine.poke m (Int64.of_int frame.ret_slot) (token m)
          | _ -> ());
  let outcome = Machine.run machine in
  (machine, outcome, List.rev !seen, !caller_base)

let victim_returning_succ pb =
  let fb = B.func pb "victim" ~params:[ ("x", i64) ] in
  let y = B.local fb "y" i64 in
  B.binop fb y Sil.Instr.Add (Var (B.param fb 0)) (const 1);
  B.ret fb (Some (Var y));
  B.seal fb

(* A token naming a block's terminator resumes the caller at that
   terminator: the rest of the block is skipped, the jump is taken. *)
let test_ret_token_terminator () =
  let build () =
    let pb = B.program () in
    Kernel.Syscalls.declare_stubs pb;
    B.global pb "g_a" i64 Sil.Prog.Zero;
    B.global pb "g_b" i64 Sil.Prog.Zero;
    victim_returning_succ pb;
    let fb = B.func pb "main" ~params:[] in
    B.call fb "victim" [ const 1 ];
    B.store fb (Sil.Place.Lglobal "g_a") (const 111);
    B.block fb "tail";
    B.store fb (Sil.Place.Lglobal "g_b") (const 222);
    B.halt fb;
    B.seal fb;
    B.build pb ~entry:"main"
  in
  let token (m : Machine.t) = Machine.Layout.addr_of_point m.layout (Term_of ("main", "entry")) in
  let machine, outcome, seen, _ = hijack_victim build token in
  Testlib.check_exit outcome;
  let g name = Machine.peek machine (Machine.global_address machine name) in
  Alcotest.(check int64) "skipped the rest of the block" 0L (g "g_a");
  Alcotest.(check int64) "took the terminator's jump" 222L (g "g_b");
  Alcotest.(check bool) "the skipped store was never reported" false
    (List.exists (Sil.Loc.equal (Sil.Loc.make "main" "entry" 1)) seen)

(* A token that is no code point faults with exactly that target:
   outside the image, misaligned inside it, and the image's first
   address with bit 63 set. *)
let test_ret_token_non_code () =
  let build () =
    let pb = B.program () in
    Kernel.Syscalls.declare_stubs pb;
    victim_returning_succ pb;
    let fb = B.func pb "main" ~params:[] in
    B.call fb "victim" [ const 1 ];
    B.halt fb;
    B.seal fb;
    B.build pb ~entry:"main"
  in
  List.iter
    (fun target ->
      let _, outcome, _, _ = hijack_victim build (fun _ -> target) in
      match outcome with
      | Machine.Faulted (Machine.Bad_return_target { target = t }) ->
        Alcotest.(check int64) (Printf.sprintf "fault carries %Lx" target) target t
      | Machine.Faulted f -> Alcotest.failf "%Lx: wrong fault %s" target (Machine.fault_to_string f)
      | Machine.Exited _ -> Alcotest.failf "%Lx: returned to a non-code token" target)
    [
      0x4141_4141_4141_4141L;
      Int64.add Machine.Layout.code_base 4L;
      Int64.logor Machine.Layout.code_base Int64.min_int;
    ]

(* main keeps a marker in its first slot and calls victim with the
   result bound to its fifth local; the gadget has a single local, so
   it has no variable with that id. *)
let pivot_program () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_out" i64 Sil.Prog.Zero;
  victim_returning_succ pb;
  let fb = B.func pb "gadget" ~params:[] in
  let x = B.local fb "x" i64 in
  B.set fb x (const 7);
  B.store fb (Sil.Place.Lglobal "g_out") (Var x);
  B.ret fb (Some (Var x));
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  let a = B.local fb "a" i64 in
  List.iter (fun n -> ignore (B.local fb n i64)) [ "b"; "c"; "d" ];
  let r = B.local fb "r" i64 in
  B.set fb a (const 1234);
  B.call fb ~dst:r "victim" [ const 41 ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let gadget_mid (m : Machine.t) = Machine.instr_address m (Sil.Loc.make "gadget" "entry" 1)

(* A mid-block pivot into a function that lacks the caller's [dst]
   variable does not fault, and no gadget slot receives the return
   value: the value goes to the caller's own [dst] slot (resolved
   against the function that made the call) before control moves. *)
let test_ret_token_pivot_without_dst () =
  let machine, outcome, _, caller_base = hijack_victim pivot_program gadget_mid in
  (match outcome with
  | Machine.Exited code -> Alcotest.(check int64) "gadget returns its slot 0" 1234L code
  | Machine.Faulted f -> Alcotest.failf "pivot faulted: %s" (Machine.fault_to_string f));
  Alcotest.(check int64) "gadget read the caller's marker, not the return value" 1234L
    (Machine.peek machine (Machine.global_address machine "g_out"));
  Alcotest.(check int64) "return value delivered to the caller's dst slot" 42L
    (Machine.peek machine (Machine.Memory.addr_add caller_base 4))

(* [on_instr] reports the pivoted location. *)
let test_ret_token_pivot_reported () =
  let _, _, seen, _ = hijack_victim pivot_program gadget_mid in
  let rec after_victim = function
    | (l : Sil.Loc.t) :: rest when String.equal l.func "victim" -> rest
    | _ :: rest -> after_victim rest
    | [] -> []
  in
  Alcotest.(check (list string)) "locations after the hijack" [ "gadget:entry:1" ]
    (List.map Sil.Loc.to_string (after_victim seen))

(* The code image's laws hold on the three workload models. *)
let test_code_image_models () =
  List.iter
    (fun (name, prog) ->
      Alcotest.(check (list string)) (name ^ " code image") [] (Testlib.code_image_violations prog))
    [
      ("nginx", Workloads.Nginx_model.build Workloads.Nginx_model.small);
      ("sqlite", Workloads.Sqlite_model.build Workloads.Sqlite_model.small);
      ("vsftpd", Workloads.Vsftpd_model.build Workloads.Vsftpd_model.small);
    ]

let test_cost_accounting () =
  let run_cycles io =
    let pb = B.program () in
    Kernel.Syscalls.declare_stubs pb;
    let fb = B.func pb "main" ~params:[] in
    B.call fb "getpid" [];
    B.halt fb;
    B.seal fb;
    let prog = B.build pb ~entry:"main" in
    let cost = { Machine.Cost.default with io_per_word = io } in
    let machine = Machine.create ~config:{ Machine.default_config with cost } prog in
    ignore (Kernel.boot machine);
    ignore (Machine.run machine);
    machine.stats.cycles
  in
  Alcotest.(check bool) "cycles counted" true (run_cycles 8 > 0);
  Alcotest.(check int) "io cost irrelevant without io" (run_cycles 8) (run_cycles 80)

let suites =
  [
    ( "machine",
      [
        Alcotest.test_case "memory words" `Quick test_memory_words;
        Alcotest.test_case "memory strings" `Quick test_memory_strings;
        Alcotest.test_case "layout" `Quick test_layout;
        Alcotest.test_case "rodata interning" `Quick test_rodata_interning;
        Alcotest.test_case "arithmetic + branches" `Quick test_arith_and_branches;
        Alcotest.test_case "calls and return values" `Quick test_call_return_values;
        Alcotest.test_case "recursion" `Quick test_recursion;
        Alcotest.test_case "indirect call resolution" `Quick test_indirect_call_resolution;
        Alcotest.test_case "bad indirect target faults" `Quick
          test_bad_indirect_target_faults;
        Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        Alcotest.test_case "heap allocation" `Quick test_heap_alloc;
        Alcotest.test_case "return-token semantics (ROP + CET)" `Quick
          test_ret_token_semantics;
        Alcotest.test_case "return to a terminator address" `Quick test_ret_token_terminator;
        Alcotest.test_case "return to a non-code token faults" `Quick test_ret_token_non_code;
        Alcotest.test_case "pivot into a function without the dst variable" `Quick
          test_ret_token_pivot_without_dst;
        Alcotest.test_case "on_instr reports the pivoted location" `Quick
          test_ret_token_pivot_reported;
        Alcotest.test_case "code image laws on the three models" `Quick test_code_image_models;
        Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
        Alcotest.test_case "rodata is per machine" `Quick test_rodata_per_machine;
      ] );
  ]

(* --- the call path ---------------------------------------------------- *)

(* Appended: a call reuses its depth's frame record and argument file,
   keeps [sp] and [trap_rip] as [int]s and its shadow stack unboxed, so
   in a release build it allocates nothing. *)

type call_kind = No_call | Direct0 | Direct3 | Indirect3 | Syscall3 | Ctx3

(* [n] iterations of a counted loop of two assignments and a branch,
   each making one call of [kind]: to a leaf of no or three parameters,
   to the three-parameter leaf through a function pointer, to a syscall
   stub or to a ctx_* intrinsic, the last four with three arguments. *)
let call_loop kind n =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.intrinsic pb "ctx_bind_mem" ~arity:3;
  let fb = B.func pb "leaf0" ~params:[] in
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "leaf3" ~params:[ ("a", i64); ("b", i64); ("c", i64) ] in
  B.ret fb None;
  B.seal fb;
  B.global pb "g_fp" ptr (Sil.Prog.Fptr "leaf3");
  let fb = B.func pb "main" ~params:[] in
  let i = B.local fb "i" i64 and c = B.local fb "c" i64 in
  B.set fb i (const 0);
  B.jump fb "loop";
  B.block fb "loop";
  B.binop fb i Sil.Instr.Add (Var i) (const 1);
  B.binop fb c Sil.Instr.Lt (Var i) (const n);
  let args = [ Var i; const 4096; Var c ] in
  (match kind with
  | No_call -> ()
  | Direct0 -> B.call fb "leaf0" []
  | Direct3 -> B.call fb "leaf3" args
  | Indirect3 -> B.call_indirect fb (Global "g_fp") args
  | Syscall3 -> B.call fb "mprotect" args
  | Ctx3 -> B.call fb "ctx_bind_mem" args);
  B.branch fb (Var c) "loop" "done";
  B.block fb "done";
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

(* Minor words one more iteration allocates, under CET with no-op
   hooks: the difference of two loop lengths, so set-up cancels. *)
let words_per_iteration kind =
  let words n =
    let m =
      Machine.create ~config:{ Machine.default_config with cet = true } (call_loop kind n)
    in
    m.on_syscall <- Some (fun _ ~sysno:_ ~args:_ -> 0L);
    m.on_intrinsic <- Some (fun _ ~name:_ ~args:_ -> 0L);
    let before = Gc.minor_words () in
    let outcome = Machine.run m in
    let words = Gc.minor_words () -. before in
    Testlib.check_exit outcome;
    words
  in
  (words 2000 -. words 1000) /. 1000.

(* In release, where [@inline] crosses modules, a call allocates
   nothing the call-free loop does not.  The dev profile passes
   -opaque, so each memory, shadow-stack and argument-file access that
   crosses a module boxes its word; the budget there is what those
   boxes come to per call. *)
let test_calls_allocate_nothing () =
  let loop = words_per_iteration No_call in
  List.iter
    (fun (name, kind, dev_budget) ->
      let budget = if String.equal Build_profile.name "release" then 0. else dev_budget in
      let extra = words_per_iteration kind -. loop in
      if extra > budget then
        Alcotest.failf "%s: %.2f minor words per call over the call-free loop (budget %.0f, %s)"
          name extra budget Build_profile.name)
    [ ("direct, no arguments", Direct0, 15.); ("direct, three arguments", Direct3, 45.);
      ("indirect", Indirect3, 51.); ("syscall stub", Syscall3, 12.); ("ctx_* intrinsic", Ctx3, 12.) ]

(* A frame record reused at its depth by another callee shows
   [Ptrace.snapshot] only that callee's callsite, arguments and return
   token.  [a] and its leaf run at depths 1 and 2 first, with three
   arguments each; [b] and its leaf reuse those depths. *)
let test_reused_frame_snapshot () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  let fb = B.func pb "leaf_a" ~params:[ ("x", i64); ("y", i64); ("z", i64) ] in
  B.call fb "getpid" [ Var (B.param fb 0); Var (B.param fb 1); Var (B.param fb 2) ];
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "a" ~params:[ ("p", i64); ("q", i64); ("r", i64) ] in
  B.call fb "leaf_a" [ Var (B.param fb 0); Var (B.param fb 1); Var (B.param fb 2) ];
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "leaf_b" ~params:[ ("x", i64) ] in
  let y = B.local fb "y" i64 in
  B.binop fb y Sil.Instr.Add (Var (B.param fb 0)) (const 1);
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "b" ~params:[] in
  B.call fb "leaf_b" [ const 4 ];
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  B.call fb "a" [ const 7; const 8; const 9 ];
  B.call fb "b" [];
  B.halt fb;
  B.seal fb;
  let machine = Machine.create (B.build pb ~entry:"main") in
  let proc = Kernel.boot machine in
  let span_words = Array.make (Array.length (Machine.Layout.image machine.layout).funcs) 0 in
  let seen = ref [] in
  machine.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        if loc.index = 0 && String.equal loc.block "entry" && List.mem loc.func [ "b"; "leaf_b" ]
        then
          let snap = Kernel.Ptrace.snapshot proc.tracer ~span_words in
          let call loc = Machine.instr_address m (Sil.Loc.make (fst loc) "entry" (snd loc)) in
          seen :=
            ( loc.func,
              List.map
                (fun (fv : Kernel.Ptrace.frame_view) ->
                  ( fv.fv_func,
                    (fv.fv_callsite, Machine.Args.to_array fv.fv_args),
                    Option.map (fun t -> Int64.sub t 8L) fv.fv_ret_token ))
                snap.sn_frames,
              call )
            :: !seen);
  Testlib.check_exit (Machine.run machine);
  let frame =
    Alcotest.(triple string (pair int64 (array int64)) (option int64))
  in
  match List.rev !seen with
  | [ ("b", at_b, call); ("leaf_b", at_leaf_b, _) ] ->
    let main = ("main", (call ("main", 1), [||]), None) in
    Alcotest.(check (list frame)) "entering b at a's depth"
      [ ("b", (0L, [||]), Some (call ("main", 1))); main ]
      at_b;
    Alcotest.(check (list frame)) "entering leaf_b at leaf_a's depth"
      [
        ("leaf_b", (0L, [||]), Some (call ("b", 0)));
        ("b", (call ("b", 0), [| 4L |]), Some (call ("main", 1)));
        main;
      ]
      at_leaf_b
  | _ -> Alcotest.fail "expected one snapshot at b and one at leaf_b"

(* Recursion 10,000 frames deep runs and unwinds, with and without CET,
   at the cycle and instruction counts the list-of-frames interpreter
   had. *)
let test_deep_recursion () =
  let run cet =
    let pb = B.program () in
    Kernel.Syscalls.declare_stubs pb;
    B.global pb "g_out" i64 Sil.Prog.Zero;
    let fb = B.func pb "depth" ~params:[ ("n", i64) ] in
    let c = B.local fb "c" i64 and r = B.local fb "r" i64 in
    B.binop fb c Sil.Instr.Eq (Var (B.param fb 0)) (const 0);
    B.branch fb (Var c) "base" "rec";
    B.block fb "base";
    B.ret fb (Some (const 0));
    B.block fb "rec";
    B.binop fb r Sil.Instr.Sub (Var (B.param fb 0)) (const 1);
    B.call fb ~dst:r "depth" [ Var r ];
    B.binop fb r Sil.Instr.Add (Var r) (const 1);
    B.ret fb (Some (Var r));
    B.seal fb;
    let fb = B.func pb "main" ~params:[] in
    let r = B.local fb "r" i64 in
    B.call fb ~dst:r "depth" [ const 10_000 ];
    B.store fb (Sil.Place.Lglobal "g_out") (Var r);
    B.halt fb;
    B.seal fb;
    let machine =
      Machine.create ~config:{ Machine.default_config with cet } (B.build pb ~entry:"main")
    in
    ignore (Kernel.boot machine);
    Testlib.check_exit (Machine.run machine);
    Alcotest.(check int64) "returned depth" 10_000L
      (Machine.peek machine (Machine.global_address machine "g_out"));
    (machine.stats.cycles, machine.stats.instrs, machine.stats.rets)
  in
  Alcotest.(check (triple int int int)) "without CET: cycles, instructions, returns"
    (100_009, 40_003, 10_001) (run false);
  Alcotest.(check (triple int int int)) "with CET: cycles, instructions, returns"
    (110_010, 40_003, 10_001) (run true)

let suites =
  match suites with
  | [ (name, cases) ] ->
    [
      ( name,
        cases
        @ [
            Alcotest.test_case "calls allocate nothing" `Quick test_calls_allocate_nothing;
            Alcotest.test_case "a reused frame shows only its own call" `Quick
              test_reused_frame_snapshot;
            Alcotest.test_case "recursion 10,000 frames deep" `Quick test_deep_recursion;
          ] );
    ]
  | other -> other
