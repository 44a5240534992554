(* Last-mile unit coverage: pretty-printer constructors, exit codes,
   builder declarations, shadow binding keyspace, stats plumbing. *)

module B = Sil.Builder
open Sil.Operand

let i64 = Sil.Types.I64

let test_pp_all_constructs () =
  let show_instr i = Format.asprintf "%a" Sil.Pp.pp_instr i in
  let v = { Sil.Operand.vid = 0; vname = "v" } in
  Alcotest.(check string) "assign use" "%v.0 = 7" (show_instr (Assign (v, Use (const 7))));
  Alcotest.(check string) "assign load" "%v.0 = load @g"
    (show_instr (Assign (v, Load (Lglobal "g"))));
  Alcotest.(check string) "assign addr" "%v.0 = addr %v.0"
    (show_instr (Assign (v, Addr_of (Lvar v))));
  Alcotest.(check string) "binop" "%v.0 = xor 1, 2"
    (show_instr (Assign (v, Binop (Xor, const 1, const 2))));
  Alcotest.(check string) "store deref" "store *%v.0 <- null"
    (show_instr (Store (Lderef (Var v), Null)));
  Alcotest.(check string) "indirect call" "call *%v.0(&f)"
    (show_instr (Call { dst = None; target = Indirect (Var v); args = [ Func_addr "f" ] }));
  let show_term t = Format.asprintf "%a" Sil.Pp.pp_terminator t in
  Alcotest.(check string) "branch" "branch %v.0 ? a : b"
    (show_term (Branch (Var v, "a", "b")));
  Alcotest.(check string) "halt" "halt" (show_term Halt);
  Alcotest.(check string) "ret value" "ret 3" (show_term (Ret (Some (const 3))))

let test_exit_codes () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  let fb = B.func pb "main" ~params:[] in
  B.call fb "exit" [ const 42 ];
  B.halt fb;
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let machine = Machine.create prog in
  ignore (Kernel.boot machine);
  match Machine.run machine with
  | Machine.Exited code -> Alcotest.(check int64) "exit code" 42L code
  | Machine.Faulted f -> Alcotest.failf "fault %s" (Machine.fault_to_string f)

let test_entry_return_value () =
  let pb = B.program () in
  let fb = B.func pb "main" ~params:[] in
  let x = B.local fb "x" i64 in
  B.binop fb x Sil.Instr.Mul (const 6) (const 9);
  B.ret fb (Some (Var x));
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let machine = Machine.create prog in
  match Machine.run machine with
  | Machine.Exited code -> Alcotest.(check int64) "entry ret is exit value" 54L code
  | Machine.Faulted f -> Alcotest.failf "fault %s" (Machine.fault_to_string f)

let test_intrinsic_declaration () =
  let pb = B.program () in
  B.intrinsic pb "my_probe" ~arity:2;
  let fb = B.func pb "main" ~params:[] in
  B.call fb "my_probe" [ const 1; const 2 ];
  B.halt fb;
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  Sil.Validate.check_exn prog;
  let machine = Machine.create prog in
  let seen = ref None in
  machine.on_intrinsic <-
    Some
      (fun _ ~name ~args ->
        seen := Some (name, Machine.Args.to_array args);
        99L);
  Testlib.check_exit (Machine.run machine);
  match !seen with
  | Some ("my_probe", [| 1L; 2L |]) -> ()
  | _ -> Alcotest.fail "intrinsic not dispatched with its arguments"

let test_binding_keyspace () =
  (* Distinct (id, pos) pairs give distinct keys. *)
  let keys = ref [] in
  for id = 0 to 40 do
    for pos = 0 to 5 do
      keys := Bastion.Shadow_memory.binding_key ~id ~pos :: !keys
    done
  done;
  let n = List.length !keys in
  Alcotest.(check int) "all distinct" n
    (List.length (List.sort_uniq Stdlib.compare !keys))

let test_machine_stats_plumbing () =
  let prog = Testlib.exec_program () in
  let machine = Machine.create prog in
  ignore (Kernel.boot machine);
  ignore (Machine.run machine);
  let s = machine.stats in
  Alcotest.(check bool) "instrs counted" true (s.instrs > 0);
  Alcotest.(check bool) "calls counted" true (s.calls > 0);
  Alcotest.(check bool) "one indirect call" true (s.indirect_calls = 1);
  Alcotest.(check bool) "syscalls counted" true (s.syscalls >= 3);
  Alcotest.(check bool) "rets counted" true (s.rets > 0);
  Alcotest.(check bool) "cycles monotone proxy" true (s.cycles > s.instrs)

let test_monitor_depth_window () =
  (* Depth stats are absent when neither CF nor AI fetched frames. *)
  let prog = Testlib.exec_program () in
  let protected_prog = Bastion.Api.protect prog in
  let session =
    Bastion.Api.launch
      ~monitor_config:
        {
          Bastion.Monitor.default_config with
          contexts = { Bastion.Monitor.ct = true; cf = false; ai = false };
        }
      protected_prog ()
  in
  Testlib.check_exit (Machine.run session.machine);
  Alcotest.(check bool) "no frame walks in CT-only mode" true
    (Bastion.Monitor.depth_stats session.monitor = None)

(* --- tier-transition matrix coverage ----------------------------------- *)

(* The differential-replay tier matrix is 6x6.  This test runs a small
   battery of metadata mutations and asserts that every (before, after)
   pair is either observed at least once across the battery or
   documented unreachable with a reason — so a new movement kind can
   never appear silently, and a documented-unreachable cell firing is a
   test failure that forces the table (and the docs) to be updated. *)
let test_tier_transition_matrix () =
  let module Engine = Bastion_replay.Engine in
  let module Trace = Bastion_replay.Trace in
  let module Drivers = Workloads.Drivers in
  let observed : (string * string, unit) Hashtbl.t = Hashtbl.create 36 in
  let note (r : Engine.diff_report) =
    List.iter (fun (b, a, _) -> Hashtbl.replace observed (b, a) ()) r.dr_tier_matrix
  in
  let with_recording ?pre_resolve ?prefilter app scenarios =
    let path = Filename.temp_file "bastion-matrix" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        ignore
          (Engine.record_run ?pre_resolve ?prefilter ~app ~scale:"small"
             ~defense:Drivers.Bastion_full ~path ());
        let tr = Trace.read_file path in
        let base = Engine.base_bundle tr in
        let text = Bastion.Metadata_io.write base in
        List.iter
          (fun against ->
            note (Engine.diff_replay ?against:(against base text) tr))
          scenarios)
  in
  let edited f base text =
    Some (Test_replay.against_of_text base (f text))
  in
  let drop_records prefix =
    List.filter (fun l -> not (String.starts_with ~prefix l))
  in
  (* Identity diffs: the diagonal of every tier a recording visits. *)
  with_recording ~pre_resolve:true "nginx"
    [
      (fun _ _ -> None);
      (* dropped static pre-resolution: pre-resolved -> cheap/full *)
      edited (Test_replay.edit_section "static" (drop_records "pre-resolved"));
      (* the whole static section gone: every static tier -> cheap/full *)
      edited (Test_replay.edit_section "static" (fun _ -> []));
    ];
  with_recording ~pre_resolve:true "vsftpd"
    [
      (fun _ _ -> None);
      (* tainting every rank disables the cheap path: cheap -> full *)
      edited
        (Test_replay.edit_section "static"
           (List.map (fun l ->
                if
                  String.starts_with ~prefix:"slot-rank " l
                  && String.ends_with ~suffix:" u" l
                then String.sub l 0 (String.length l - 1) ^ "t"
                else l)));
      edited (Test_replay.edit_section "static" (fun _ -> []));
    ];
  (* Enrichment direction: full/cheap work moves down to static tiers. *)
  with_recording "nginx"
    [ (fun base _ -> Some (Bastion_analysis.Preresolve.enrich base)) ];
  with_recording "vsftpd"
    [ (fun base _ -> Some (Bastion_analysis.Preresolve.enrich base)) ];
  (* CF edges removed: allowed traps become control-flow denials. *)
  with_recording "sqlite"
    [
      edited (Test_replay.edit_section "cfg" (drop_records "valid-caller "));
    ];
  with_recording ~pre_resolve:true "nginx"
    [
      edited (Test_replay.edit_section "cfg" (drop_records "valid-caller "));
    ];
  let tiers =
    [ "prefilter"; "cached"; "pre-resolved"; "ctx"; "cheap"; "full" ]
  in
  (* Cells no metadata mutation can produce, with the reason.  The
     assertion is two-sided: reachable cells must be observed above,
     and a documented-unreachable cell being observed fails too. *)
  let unreachable =
    [
      (* The whole prefilter row and column: the syscall-flow automaton
         is extracted from the instrumented *program*
         (Flowgraph.extract reads p.inst.iprog), and diff-replay pins
         the program — only the metadata varies.  No metadata edit can
         move the seccomp boundary, so a trap resolves at the prefilter
         in the fresh run iff it did in the recorded one — and such
         traps appear in neither stream.  The engine still counts
         boundary movements (dr_moved_to_prefilter, dr_fresh_unmatched)
         for deployments where the program itself differs. *)
      ("prefilter", "prefilter");
      ("prefilter", "cached");
      ("prefilter", "pre-resolved");
      ("prefilter", "ctx");
      ("prefilter", "cheap");
      ("prefilter", "full");
      ("cached", "prefilter");
      ("pre-resolved", "prefilter");
      ("ctx", "prefilter");
      ("cheap", "prefilter");
      ("full", "prefilter");
      (* Moves into cached: the verdict-cache disposition is a function
         of the replayed trap stream alone (key recurrence), and
         diff-replay preserves the stream; metadata edits act on the AI
         tiers below the cache probe.  A trap lands on cached fresh iff
         it was cached recorded. *)
      ("pre-resolved", "cached");
      ("ctx", "cached");
      ("cheap", "cached");
      ("full", "cached");
      (* Moves off cached land only on full: the same stream warms the
         same keys, so a cache-vouched trap stays vouched unless an
         upstream fresh denial kept the cache cold — and then the full
         judging pipeline runs (cached->full, observed above), never a
         static AI shortcut (those slots were not statically settled,
         or the trap would not have been probing the cache). *)
      ("cached", "pre-resolved");
      ("cached", "ctx");
      ("cached", "cheap");
      (* Cross moves between the static AI tiers: the enrichment pass
         settles disjoint slot sets per tier — a globally constant slot
         is recorded plain pre-resolved, a 1-context one per-caller,
         and taint ranks are only computed for what remains.  Dropping
         one record family therefore falls through to the full walk
         (x->full, observed above), never sideways to another static
         tier, and enrichment gains come only from the full walk. *)
      ("pre-resolved", "ctx");
      ("pre-resolved", "cheap");
      ("ctx", "pre-resolved");
      ("ctx", "cheap");
      ("cheap", "pre-resolved");
      ("cheap", "ctx");
    ]
  in
  List.iter
    (fun b ->
      List.iter
        (fun a ->
          let seen = Hashtbl.mem observed (b, a) in
          if List.mem (b, a) unreachable then
            Alcotest.(check bool)
              (Printf.sprintf "%s->%s stays unreachable (documented)" b a)
              false seen
          else
            Alcotest.(check bool)
              (Printf.sprintf "%s->%s exercised" b a)
              true seen)
        tiers)
    tiers

let suites =
  [
    ( "coverage",
      [
        Alcotest.test_case "pretty-printer constructs" `Quick test_pp_all_constructs;
        Alcotest.test_case "exit codes" `Quick test_exit_codes;
        Alcotest.test_case "entry return value" `Quick test_entry_return_value;
        Alcotest.test_case "intrinsic declaration + dispatch" `Quick
          test_intrinsic_declaration;
        Alcotest.test_case "binding keyspace" `Quick test_binding_keyspace;
        Alcotest.test_case "machine stats plumbing" `Quick test_machine_stats_plumbing;
        Alcotest.test_case "depth stats need frame walks" `Quick test_monitor_depth_window;
        Alcotest.test_case "tier-transition matrix fully accounted" `Slow
          test_tier_transition_matrix;
      ] );
  ]
