(* Unit tests for the runtime monitor: each context's detection in
   isolation, the seccomp filter it builds, the fs-extension modes, the
   sockaddr fast path and the shadow-memory runtime. *)

module B = Sil.Builder
open Sil.Operand

let i64 = Sil.Types.I64
let ptr = Sil.Types.Ptr Sil.Types.I64

let launch ?(contexts = Bastion.Monitor.all_contexts) ?(fs_mode = Bastion.Monitor.Fs_off)
    ?(sockaddr_fastpath = true) ?(protect_filesystem = false) ?(trap_cache = true) prog =
  let protected_prog = Bastion.Api.protect ~protect_filesystem prog in
  Bastion.Api.launch
    ~monitor_config:
      { Bastion.Monitor.default_config with contexts; fs_mode; sockaddr_fastpath;
        trap_cache }
    protected_prog ()

(* Fixture: main stores a prot value, helper mprotects with it; also a
   benign indirect call and an execve path (for extended checks). *)
let fixture () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_prot" i64 Sil.Prog.Zero;
  B.global pb "g_path" ptr Sil.Prog.Zero;
  B.global pb "g_fp" ptr (Sil.Prog.Fptr "helper");
  B.global pb "g_buf" (Sil.Types.Array (i64, 8)) Sil.Prog.Zero;
  let fb = B.func pb "helper" ~params:[ ("len", i64) ] in
  let prot = B.local fb "prot" i64 in
  B.load fb prot (Sil.Place.Lglobal "g_prot");
  B.call fb "mprotect" [ Null; Var (B.param fb 0); Var prot ];
  B.ret fb (Some (const 0));
  B.seal fb;
  let fb = B.func pb "do_exec" ~params:[] in
  let path = B.local fb "path" ptr in
  B.load fb path (Sil.Place.Lglobal "g_path");
  B.call fb "execve" [ Var path; Null; Null ];
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  let h = B.local fb "h" ptr in
  let r = B.local fb "r" i64 in
  B.store fb (Sil.Place.Lglobal "g_prot") (const 1);
  B.store fb (Sil.Place.Lglobal "g_path") (Cstr "/usr/bin/tool");
  B.call fb "helper" [ const 4096 ];
  B.load fb h (Sil.Place.Lglobal "g_fp");
  B.call_indirect fb ~dst:r (Var h) [ const 64 ];
  B.call fb "do_exec" [];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let poke_at (m : Machine.t) func action =
  let fired = ref false in
  m.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        if (not !fired) && String.equal loc.func func then begin
          fired := true;
          action m
        end)

(* --- seccomp filter construction -------------------------------------- *)

let test_filter_rules () =
  let session = launch (fixture ()) in
  match session.process.filter with
  | None -> Alcotest.fail "no filter installed"
  | Some f ->
    let rule name = Kernel.Seccomp.rule f (Kernel.Syscalls.number name) in
    Alcotest.(check bool) "mprotect traced" true (rule "mprotect" = Kernel.Seccomp.Trace);
    Alcotest.(check bool) "execve traced" true (rule "execve" = Kernel.Seccomp.Trace);
    Alcotest.(check bool) "setuid (unused, sensitive) killed" true
      (rule "setuid" = Kernel.Seccomp.Kill);
    Alcotest.(check bool) "getpid (unused, benign) killed (§11.3)" true
      (rule "getpid" = Kernel.Seccomp.Kill);
    Alcotest.(check bool) "open allowed in default scope" true
      (rule "open" = Kernel.Seccomp.Kill || rule "open" = Kernel.Seccomp.Allow)

let test_filter_fs_modes () =
  let prog = fixture () in
  let rule_of fs_mode name =
    let session = launch ~fs_mode ~protect_filesystem:true prog in
    match session.process.filter with
    | Some f -> Kernel.Seccomp.rule f (Kernel.Syscalls.number name)
    | None -> Alcotest.fail "no filter"
  in
  Alcotest.(check bool) "hook-only: fs syscalls evaluated but allowed" true
    (rule_of Bastion.Monitor.Fs_hook_only "execve" = Kernel.Seccomp.Trace);
  let session = launch ~fs_mode:Bastion.Monitor.Fs_fetch_only ~protect_filesystem:true prog in
  (match session.process.filter with
  | Some f ->
    (* The fixture has no fs syscalls used, so check a used one stays
       traced and the default stays kill. *)
    Alcotest.(check bool) "mprotect still traced" true
      (Kernel.Seccomp.rule f (Kernel.Syscalls.number "mprotect") = Kernel.Seccomp.Trace)
  | None -> Alcotest.fail "no filter");
  ignore session

(* --- call-type context -------------------------------------------------- *)

let test_ct_blocks_indirect_syscall () =
  let session =
    launch ~contexts:{ Bastion.Monitor.ct = true; cf = false; ai = false } (fixture ())
  in
  let m = session.machine in
  poke_at m "main" (fun m ->
      Machine.poke m (Machine.global_address m "g_fp")
        (Machine.function_address m "mprotect"));
  Testlib.check_fault (Machine.run m)
    (Testlib.is_monitor_kill ~context:"call-type")
    "call-type";
  match Bastion.Monitor.denials session.monitor with
  | [ d ] ->
    Alcotest.(check string) "denial names mprotect" "mprotect"
      (Kernel.Syscalls.name d.d_sysno)
  | _ -> Alcotest.fail "expected exactly one denial"

(* --- control-flow context ----------------------------------------------- *)

let test_cf_blocks_invalid_pair () =
  let session =
    launch ~contexts:{ Bastion.Monitor.ct = false; cf = true; ai = false } (fixture ())
  in
  let m = session.machine in
  (* ROP: redirect main's helper-call return into do_exec's body. *)
  poke_at m "helper" (fun m ->
      match Machine.frames m with
      | frame :: _ ->
        Machine.poke m (Int64.of_int frame.ret_slot)
          (Machine.instr_address m (Sil.Loc.make "do_exec" "entry" 0))
      | [] -> ());
  Testlib.check_fault (Machine.run m)
    (Testlib.is_monitor_kill ~context:"control-flow")
    "control-flow"

let test_cf_accepts_legit_indirect () =
  (* The benign run includes an indirect call on the path to no syscall;
     CF-only must pass the whole program. *)
  let session =
    launch ~contexts:{ Bastion.Monitor.ct = false; cf = true; ai = false } (fixture ())
  in
  Testlib.check_exit (Machine.run session.machine)

(* --- argument-integrity context ----------------------------------------- *)

let test_ai_blocks_global_corruption () =
  let session =
    launch ~contexts:{ Bastion.Monitor.ct = false; cf = false; ai = true } (fixture ())
  in
  let m = session.machine in
  poke_at m "helper" (fun m -> Machine.poke m (Machine.global_address m "g_prot") 7L);
  Testlib.check_fault (Machine.run m)
    (Testlib.is_monitor_kill ~context:"argument-integrity")
    "argument-integrity";
  (* The corrupted mprotect must not have executed. *)
  Alcotest.(check int) "mprotect blocked" 0
    (List.length (Kernel.Process.executed session.process "mprotect"))

let test_ai_blocks_extended_corruption () =
  let session =
    launch ~contexts:{ Bastion.Monitor.ct = false; cf = false; ai = true } (fixture ())
  in
  let m = session.machine in
  poke_at m "do_exec" (fun m ->
      (* Point the path at attacker-written bytes in a writable buffer. *)
      let buf = Machine.global_address m "g_buf" in
      Attacks.Primitives.plant_string m buf "/bin/sh";
      Machine.poke m (Machine.global_address m "g_path") buf);
  Testlib.check_fault (Machine.run m)
    (Testlib.is_monitor_kill ~context:"argument-integrity")
    "argument-integrity";
  Alcotest.(check int) "execve blocked" 0
    (List.length (Kernel.Process.executed session.process "execve"))

let test_ai_allows_legit_rodata_path () =
  let session =
    launch ~contexts:{ Bastion.Monitor.ct = false; cf = false; ai = true } (fixture ())
  in
  Testlib.check_exit (Machine.run session.machine);
  match Kernel.Process.executed session.process "execve" with
  | [ e ] -> Alcotest.(check (option string)) "path" (Some "/usr/bin/tool") e.ev_path
  | _ -> Alcotest.fail "expected one execve"

let test_ai_requires_traced_callsite () =
  (* A sensitive syscall reached from a callsite with no argument
     metadata (here: an indirect call to the stub with only AI on) is
     untraced and must die. *)
  let session =
    launch ~contexts:{ Bastion.Monitor.ct = false; cf = false; ai = true } (fixture ())
  in
  let m = session.machine in
  poke_at m "main" (fun m ->
      Machine.poke m (Machine.global_address m "g_fp")
        (Machine.function_address m "mprotect"));
  Testlib.check_fault (Machine.run m)
    (Testlib.is_monitor_kill ~context:"argument-integrity")
    "argument-integrity"

(* --- every Argument-Integrity denial, pinned ------------------------------ *)

(* One case per [Deny] raise site of the AI context (the callsite check,
   its per-slot paths, the extended-contents check, the frame-slot and
   global sweeps), each reached on {!fixture} through the public API:
   metadata records written into the protected bundle before launch,
   and pokes into tracee memory, a frame's spilled call arguments or the
   session's shadow table, made at a chosen program point or just
   before a chosen trap is judged.  Each case pins the exact denial and
   the machine's cycle total when the run is killed. *)
type ai_case = {
  ac_name : string;
  ac_contexts : Bastion.Monitor.contexts;
  ac_meta : Bastion.Api.protected -> unit;  (** metadata written before launch *)
  ac_arm : Bastion.Api.protected -> Bastion.Api.session -> unit;
  ac_detail : string;
  ac_cycles : int;
}

let ai_only = { Bastion.Monitor.ct = false; cf = false; ai = true }

let callsite_meta (p : Bastion.Api.protected) ~func ~callee =
  List.find
    (fun (cm : Bastion.Instrument.callsite_meta) ->
      String.equal cm.cm_loc.func func && String.equal cm.cm_callee callee)
    p.inst.callsites

let cs_id p ~func ~callee = (callsite_meta p ~func ~callee).cm_id

(* Run [f] just before the first trap is judged. *)
let before_first_trap (s : Bastion.Api.session) f =
  match s.process.tracer_hook with
  | None -> Alcotest.fail "no tracer hook"
  | Some hook ->
    let armed = ref true in
    s.process.tracer_hook <-
      Some
        (fun p ~sysno ~args ->
          if !armed then begin
            armed := false;
            f s.machine
          end;
          hook p ~sysno ~args)

let helper_var (m : Machine.t) var =
  match Machine.local_address m ~func:"helper" ~var with
  | Some a -> a
  | None -> Alcotest.failf "helper has no live %s" var

(* Return from helper straight onto do_exec's execve call instruction:
   main's frame re-executes that call without the bindings made before
   it, and with main's words in do_exec's slots. *)
let rop_into_execve (p : Bastion.Api.protected) (s : Bastion.Api.session) =
  let execve =
    Machine.instr_address s.machine (callsite_meta p ~func:"do_exec" ~callee:"execve").cm_loc
  in
  poke_at s.machine "helper" (fun m ->
      match Machine.frames m with
      | frame :: _ -> Machine.poke m (Int64.of_int frame.ret_slot) execve
      | [] -> ())

let no_meta (_ : Bastion.Api.protected) = ()

let ai_cases =
  let all = Bastion.Monitor.all_contexts in
  let mprotect p = cs_id p ~func:"helper" ~callee:"mprotect" in
  let shadow (s : Bastion.Api.session) = s.runtime.shadow in
  [
    { ac_name = "dead site"; ac_contexts = all;
      ac_meta = (fun p -> Hashtbl.replace p.dead_sites (mprotect p) ());
      ac_arm = (fun _ _ -> ());
      ac_detail = "syscall invoked at a callsite no benign execution reaches";
      ac_cycles = 7251 };
    { ac_name = "untraced callsite"; ac_contexts = ai_only; ac_meta = no_meta;
      ac_arm =
        (fun _ s ->
          poke_at s.machine "main" (fun m ->
              Machine.poke m (Machine.global_address m "g_fp")
                (Machine.function_address m "mprotect")));
      ac_detail = "syscall arguments are untraced at this callsite"; ac_cycles = 15031 };
    { ac_name = "constant corrupted"; ac_contexts = all; ac_meta = no_meta;
      ac_arm =
        (fun _ s ->
          before_first_trap s (fun m ->
              match Machine.frames m with
              | frame :: _ -> Machine.Args.set frame.args 0 0x1000L
              | [] -> ()));
      ac_detail = "constant argument 0 of mprotect corrupted"; ac_cycles = 7257 };
    { ac_name = "corrupted, pre-resolved path"; ac_contexts = all;
      ac_meta = (fun p -> Hashtbl.replace p.pre_resolved (mprotect p) [ (2, 1L) ]);
      ac_arm =
        (fun _ s ->
          poke_at s.machine "helper" (fun m ->
              Machine.poke m (Machine.global_address m "g_prot") 7L));
      ac_detail = "argument 2 of mprotect corrupted (expected 1, got 7)"; ac_cycles = 7285 };
    { ac_name = "corrupted, per-caller path"; ac_contexts = all;
      ac_meta =
        (fun p ->
          (* main calls helper directly with 4096, then through g_fp
             with 64: one admissible value per caller. *)
          let by_index =
            List.sort
              (fun (a : Bastion.Instrument.callsite_meta) b ->
                Int.compare a.cm_loc.index b.cm_loc.index)
              (List.filter
                 (fun (cm : Bastion.Instrument.callsite_meta) ->
                   String.equal cm.cm_loc.func "main" && String.equal cm.cm_callee "helper")
                 p.inst.callsites)
          in
          match by_index with
          | [ direct; indirect ] ->
            Hashtbl.replace p.pre_resolved_ctx (mprotect p)
              [ (1, direct.cm_id, 4096L); (1, indirect.cm_id, 64L) ]
          | _ -> Alcotest.fail "main should call helper twice");
      ac_arm =
        (fun _ s -> poke_at s.machine "helper" (fun m -> Machine.poke m (helper_var m "len") 5L));
      ac_detail = "argument 1 of mprotect corrupted (expected 4096, got 5)"; ac_cycles = 7263 };
    { ac_name = "corrupted, cheap path"; ac_contexts = all;
      ac_meta = (fun p -> Hashtbl.replace p.slot_ranks (mprotect p) [ (2, false) ]);
      ac_arm =
        (fun _ s ->
          before_first_trap s (fun m ->
              Bastion.Shadow_memory.set_shadow (shadow s) ~addr:(helper_var m "prot")
                ~value:99L));
      ac_detail = "argument 2 of mprotect corrupted (expected 99, got 1)"; ac_cycles = 7293 };
    { ac_name = "untraced, cheap path"; ac_contexts = ai_only;
      ac_meta =
        (fun p ->
          Hashtbl.replace p.slot_ranks (cs_id p ~func:"do_exec" ~callee:"execve") [ (0, false) ]);
      ac_arm = rop_into_execve;
      ac_detail = "argument 0 of execve is untraced"; ac_cycles = 15573 };
    { ac_name = "never bound, full path"; ac_contexts = ai_only; ac_meta = no_meta;
      ac_arm = rop_into_execve;
      ac_detail = "argument 0 of execve was never bound"; ac_cycles = 15573 };
    { ac_name = "untraced, full path"; ac_contexts = all; ac_meta = no_meta;
      ac_arm =
        (fun p s ->
          before_first_trap s (fun m ->
              Bastion.Shadow_memory.set_binding (shadow s) ~id:(mprotect p) ~pos:2
                ~addr:(Machine.alloc_heap m 1)));
      ac_detail = "argument 2 of mprotect is untraced"; ac_cycles = 7301 };
    { ac_name = "corrupted, full path"; ac_contexts = all; ac_meta = no_meta;
      ac_arm =
        (fun _ s ->
          before_first_trap s (fun m ->
              Bastion.Shadow_memory.set_shadow (shadow s) ~addr:(helper_var m "prot")
                ~value:99L));
      ac_detail = "argument 2 of mprotect corrupted (expected 99, got 1)"; ac_cycles = 7301 };
    { ac_name = "extended contents corrupted"; ac_contexts = all; ac_meta = no_meta;
      ac_arm =
        (fun _ s ->
          poke_at s.machine "do_exec" (fun m ->
              let buf = Machine.global_address m "g_buf" in
              Attacks.Primitives.plant_string m buf "/bin/sh";
              Machine.poke m (Machine.global_address m "g_path") buf));
      ac_detail = "extended argument contents corrupted"; ac_cycles = 25323 };
    { ac_name = "extended contents untraced"; ac_contexts = all; ac_meta = no_meta;
      ac_arm =
        (fun _ s ->
          poke_at s.machine "do_exec" (fun m ->
              let buf = Machine.alloc_heap m 8 in
              Attacks.Primitives.plant_string m buf "/bin/sh";
              Machine.poke m (Machine.global_address m "g_path") buf));
      ac_detail = "extended argument contents untraced"; ac_cycles = 25323 };
    { ac_name = "sensitive variable corrupted"; ac_contexts = all; ac_meta = no_meta;
      ac_arm = (fun _ s -> before_first_trap s (fun m -> Machine.poke m (helper_var m "prot") 7L));
      ac_detail = "sensitive variable at helper+1 corrupted"; ac_cycles = 7315 };
    { ac_name = "sensitive global corrupted"; ac_contexts = all; ac_meta = no_meta;
      ac_arm =
        (fun _ s ->
          before_first_trap s (fun m -> Machine.poke m (Machine.global_address m "g_prot") 7L));
      ac_detail = "sensitive global g_prot corrupted"; ac_cycles = 7880 };
  ]

let test_ai_denials () =
  List.iter
    (fun c ->
      let p = Bastion.Api.protect (fixture ()) in
      c.ac_meta p;
      let s =
        Bastion.Api.launch
          ~monitor_config:{ Bastion.Monitor.default_config with contexts = c.ac_contexts }
          p ()
      in
      c.ac_arm p s;
      ignore (Machine.run s.machine);
      match Bastion.Monitor.denials s.monitor with
      | [ d ] ->
        Alcotest.(check (pair string string))
          (c.ac_name ^ ": denial")
          ("argument-integrity", c.ac_detail) (d.d_context, d.d_detail);
        Alcotest.(check int) (c.ac_name ^ ": cycles at the denial") c.ac_cycles
          s.machine.stats.cycles
      | ds -> Alcotest.failf "%s: expected one denial, got %d" c.ac_name (List.length ds))
    ai_cases

(* --- every Call-Type and Control-Flow denial, pinned ---------------------- *)

(* One case per [Deny] raise site of the CT and CF contexts (two for
   the CT callsite-match site: a callee that is no syscall stub, and a
   stub of another syscall), each reached on {!fixture} through the
   public API: pokes into tracee memory at a chosen program point, or a
   trap source wrapping the live one that hands the monitor a forged
   trap rip, syscall number or unwound stack, charging exactly what the
   live source charges.  Each case pins the exact denial and the
   machine's cycle total when the run is killed; none is unreachable. *)
type flow_case = {
  fc_name : string;
  fc_contexts : Bastion.Monitor.contexts;
  fc_arm : Bastion.Api.protected -> Bastion.Api.session -> unit;
  fc_denial : string * string;  (** context, detail *)
  fc_cycles : int;
}

let ct_only = { Bastion.Monitor.ct = true; cf = false; ai = false }
let cf_only = { Bastion.Monitor.ct = false; cf = true; ai = false }

(* Locations in the instrumented program (instrumentation shifts
   instruction indices, so they are looked up, not written down). *)
let call_loc (p : Bastion.Api.protected) ~func ~direct =
  match
    List.find_opt
      (fun ((loc : Sil.Loc.t), _, (target : Sil.Instr.call_target), _) ->
        String.equal loc.func func
        &&
        match (target, direct) with
        | Direct callee, Some name -> String.equal callee name
        | Indirect _, None -> true
        | Direct _, None | Indirect _, Some _ -> false)
      (Sil.Prog.calls p.inst.iprog)
  with
  | Some (loc, _, _, _) -> loc
  | None -> Alcotest.failf "%s has no such call" func

let non_call_loc (p : Bastion.Api.protected) ~func =
  match
    List.find_opt
      (fun ((loc : Sil.Loc.t), (ins : Sil.Instr.t)) ->
        String.equal loc.func func
        && match ins with Call _ -> false | Assign _ | Store _ -> true)
      (Sil.Prog.instrs p.inst.iprog)
  with
  | Some (loc, _) -> loc
  | None -> Alcotest.failf "%s has only calls" func

(* A return token naming [loc] as the call it returns to: the address
   of the code point just past it. *)
let return_to (s : Bastion.Api.session) loc = Int64.add (Machine.instr_address s.machine loc) 8L

(* Overwrite the return address of the first frame of [func], on entry. *)
let smash_return (s : Bastion.Api.session) func token =
  poke_at s.machine func (fun m ->
      match Machine.frames m with
      | frame :: _ -> Machine.poke m (Int64.of_int frame.ret_slot) token
      | [] -> ())

(* Judge every trap on forged inputs derived from the live ones. *)
let forge ?(regs = Fun.id) ?(frames = Fun.id) (s : Bastion.Api.session) =
  let live = Bastion.Monitor.live_source in
  Bastion.Monitor.set_source s.monitor
    {
      ts_regs = (fun tr -> regs (live.ts_regs tr));
      ts_snapshot =
        (fun tr ~span_words ->
          let sn = live.ts_snapshot tr ~span_words in
          { sn with sn_frames = frames sn.sn_frames });
    }

let rip_at loc (s : Bastion.Api.session) (r : Kernel.Ptrace.regs) =
  { r with rip = Machine.instr_address s.machine loc }

let flow_cases =
  let ct detail = ("call-type", detail) and cf detail = ("control-flow", detail) in
  [
    { fc_name = "unknown callsite"; fc_contexts = ct_only;
      fc_arm = (fun p s -> forge s ~regs:(rip_at (non_call_loc p ~func:"helper") s));
      fc_denial = ct "syscall invoked from unknown callsite"; fc_cycles = 6123 };
    { fc_name = "not directly callable"; fc_contexts = ct_only;
      fc_arm =
        (fun _ s ->
          forge s ~regs:(fun r -> { r with sysno = Kernel.Syscalls.number "setuid" }));
      fc_denial = ct "setuid is not directly-callable"; fc_cycles = 6123 };
    { fc_name = "callee is no syscall stub"; fc_contexts = ct_only;
      fc_arm =
        (fun p s -> forge s ~regs:(rip_at (call_loc p ~func:"main" ~direct:(Some "helper")) s));
      fc_denial = ct "callsite does not match trapped syscall"; fc_cycles = 6123 };
    { fc_name = "callee is another syscall's stub"; fc_contexts = ct_only;
      fc_arm =
        (fun p s ->
          forge s ~regs:(rip_at (call_loc p ~func:"do_exec" ~direct:(Some "execve")) s));
      fc_denial = ct "callsite does not match trapped syscall"; fc_cycles = 6123 };
    { fc_name = "not indirectly callable"; fc_contexts = ct_only;
      fc_arm =
        (fun _ s ->
          poke_at s.machine "main" (fun m ->
              Machine.poke m (Machine.global_address m "g_fp")
                (Machine.function_address m "mprotect")));
      fc_denial = ct "mprotect is not indirectly-callable"; fc_cycles = 12221 };
    { fc_name = "rip is no call instruction"; fc_contexts = cf_only;
      fc_arm =
        (fun _ s ->
          forge s ~regs:(fun r ->
              { r with
                rip =
                  Machine.Layout.addr_of_point s.machine.layout
                    (Machine.Layout.Term_of ("helper", "entry")) }));
      fc_denial = cf "trap rip is not a call instruction"; fc_cycles = 7223 };
    { fc_name = "callsite outside the CFG metadata"; fc_contexts = cf_only;
      fc_arm =
        (fun p s -> forge s ~regs:(rip_at (call_loc p ~func:"main" ~direct:(Some "helper")) s));
      fc_denial = cf "callsite is not in the CFG metadata"; fc_cycles = 7229 };
    { fc_name = "stack top elsewhere"; fc_contexts = cf_only;
      fc_arm =
        (fun p s ->
          forge s ~regs:(rip_at (call_loc p ~func:"do_exec" ~direct:(Some "execve")) s));
      fc_denial = cf "stack top does not match the trapping callsite"; fc_cycles = 7229 };
    { fc_name = "stack bottoms out early"; fc_contexts = cf_only;
      fc_arm =
        (fun _ s ->
          forge s ~frames:(function
            | (top : Kernel.Ptrace.frame_view) :: rest -> { top with fv_ret_token = None } :: rest
            | [] -> []));
      fc_denial = cf "stack bottoms out in helper, not in main"; fc_cycles = 7235 };
    { fc_name = "return address off the code"; fc_contexts = cf_only;
      fc_arm = (fun _ s -> smash_return s "helper" 0x10L);
      fc_denial = cf "return address does not map to a callsite"; fc_cycles = 7235 };
    { fc_name = "caller is not the next frame"; fc_contexts = cf_only;
      fc_arm =
        (fun p s ->
          smash_return s "helper"
            (return_to s (call_loc p ~func:"do_exec" ~direct:(Some "execve"))));
      fc_denial = cf "unwound caller does not match the next frame"; fc_cycles = 7235 };
    { fc_name = "illegitimate indirect call"; fc_contexts = cf_only;
      fc_arm =
        (fun p s -> smash_return s "do_exec" (return_to s (call_loc p ~func:"main" ~direct:None)));
      fc_denial = cf "illegitimate indirect call on the stack"; fc_cycles = 21685 };
    { fc_name = "invalid direct caller"; fc_contexts = cf_only;
      fc_arm =
        (fun p s ->
          smash_return s "helper"
            (return_to s (call_loc p ~func:"main" ~direct:(Some "do_exec"))));
      fc_denial = cf "main:entry:11 is not a valid caller of helper"; fc_cycles = 7235 };
    { fc_name = "return site is no call"; fc_contexts = cf_only;
      fc_arm = (fun p s -> smash_return s "helper" (return_to s (non_call_loc p ~func:"main")));
      fc_denial = cf "unwound return site is not a callsite"; fc_cycles = 7235 };
  ]

let test_flow_denials () =
  List.iter
    (fun c ->
      let p = Bastion.Api.protect (fixture ()) in
      let s =
        Bastion.Api.launch
          ~monitor_config:{ Bastion.Monitor.default_config with contexts = c.fc_contexts }
          p ()
      in
      c.fc_arm p s;
      ignore (Machine.run s.machine);
      match Bastion.Monitor.denials s.monitor with
      | [ d ] ->
        Alcotest.(check (pair string string))
          (c.fc_name ^ ": denial") c.fc_denial (d.d_context, d.d_detail);
        Alcotest.(check int) (c.fc_name ^ ": cycles at the denial") c.fc_cycles
          s.machine.stats.cycles
      | ds -> Alcotest.failf "%s: expected one denial, got %d" c.fc_name (List.length ds))
    flow_cases

(* --- the §11.1 adaptive attacker ------------------------------------------ *)

(* Perfect mimicry is harmless: an attacker who writes the *expected*
   values back bypasses the contexts but thereby performs exactly the
   legitimate operation — no gain (the paper's §11.1 argument). *)
let test_adaptive_mimicry_is_harmless () =
  let session = launch (fixture ()) in
  let m = session.machine in
  poke_at m "helper" (fun m ->
      (* Write the value the shadow already expects. *)
      Machine.poke m (Machine.global_address m "g_prot") 1L);
  Testlib.check_exit (Machine.run m);
  match Kernel.Process.executed session.process "mprotect" with
  | [] -> Alcotest.fail "expected mprotect to run"
  | evs ->
    List.iter
      (fun (e : Kernel.Process.exec_event) ->
        Alcotest.(check int64) "prot unchanged" 1L e.ev_args.(2))
      evs

(* Partial mimicry is caught: matching every static constraint but one
   mem-backed variable still trips Argument Integrity. *)
let test_adaptive_partial_mimicry_caught () =
  let session = launch (fixture ()) in
  let m = session.machine in
  poke_at m "do_exec" (fun m ->
      (* The attacker leaves the pointer intact (it must match its
         shadow) and instead corrupts the pointee in rodata... which DEP
         forbids; the best remaining move is a fresh buffer, and that
         buffer is untraced. *)
      let buf = Machine.global_address m "g_buf" in
      Machine.poke m buf (Int64.of_int (Char.code '/'));
      Machine.poke m (Machine.global_address m "g_path") buf);
  Testlib.check_fault (Machine.run m)
    (Testlib.is_monitor_kill ~context:"argument-integrity")
    "argument-integrity"

(* --- sockaddr fast path -------------------------------------------------- *)

let accept_prog () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_lfd" i64 Sil.Prog.Zero;
  let fb = B.func pb "main" ~params:[] in
  let s = B.local fb "s" i64 in
  let sa = B.local fb "sa" (Sil.Types.Array (i64, 2)) in
  let sap = B.local fb "sap" ptr in
  let c = B.local fb "c" i64 in
  B.call fb ~dst:s "socket" [ const 2; const 1; const 0 ];
  B.call fb "bind" [ Var s; const 80 ];
  B.call fb "listen" [ Var s; const 4 ];
  B.addr_of fb sap (Sil.Place.Lvar sa);
  B.store fb (Sil.Place.Lindex (Var sap, const 0, i64)) (const 0);
  B.store fb (Sil.Place.Lindex (Var sap, const 1, i64)) (const 0);
  B.call fb ~dst:c "accept" [ Var s; Var sap; const 2 ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let test_sockaddr_paths () =
  let run fast =
    let session = launch ~sockaddr_fastpath:fast (accept_prog ()) in
    ignore (Kernel.Net.enqueue session.process.net 80 ~request_words:1 ~payload:"x");
    Testlib.check_exit (Machine.run session.machine);
    session.machine.stats.cycles
  in
  let fast = run true and slow = run false in
  Alcotest.(check bool) "both pass; fast path not slower" true (fast <= slow)

(* --- misc ----------------------------------------------------------------- *)

let test_monitor_stats () =
  let session = launch (fixture ()) in
  Testlib.check_exit (Machine.run session.machine);
  Alcotest.(check bool) "init cycles positive" true (session.monitor.init_cycles > 0);
  Alcotest.(check int) "traps checked" 3 session.monitor.traps_checked;
  match Bastion.Monitor.depth_stats session.monitor with
  | Some (dmin, davg, dmax) ->
    Alcotest.(check bool) "depth sane" true (dmin >= 1 && davg >= 1.0 && dmax >= dmin)
  | None -> Alcotest.fail "no depth stats"

let test_runtime_shadow_sync () =
  let session = launch (fixture ()) in
  Testlib.check_exit (Machine.run session.machine);
  let m = session.machine in
  (* After the run, shadow copies of sensitive globals equal memory. *)
  let gprot = Machine.global_address m "g_prot" in
  Alcotest.(check (option int64)) "g_prot shadow in sync"
    (Some (Machine.peek m gprot))
    (Bastion.Shadow_memory.shadow session.runtime.shadow ~addr:gprot);
  Alcotest.(check bool) "write_mem ran" true (session.runtime.write_mem_calls > 0);
  Alcotest.(check bool) "bind_mem ran" true (session.runtime.bind_mem_calls > 0)

let suites =
  [
    ( "monitor",
      [
        Alcotest.test_case "seccomp filter rules" `Quick test_filter_rules;
        Alcotest.test_case "filter fs modes" `Quick test_filter_fs_modes;
        Alcotest.test_case "CT blocks indirect syscall" `Quick
          test_ct_blocks_indirect_syscall;
        Alcotest.test_case "CF blocks invalid pair" `Quick test_cf_blocks_invalid_pair;
        Alcotest.test_case "CF accepts legit indirect" `Quick test_cf_accepts_legit_indirect;
        Alcotest.test_case "AI blocks global corruption" `Quick
          test_ai_blocks_global_corruption;
        Alcotest.test_case "AI blocks extended corruption" `Quick
          test_ai_blocks_extended_corruption;
        Alcotest.test_case "AI allows legit rodata path" `Quick
          test_ai_allows_legit_rodata_path;
        Alcotest.test_case "AI requires traced callsite" `Quick
          test_ai_requires_traced_callsite;
        Alcotest.test_case "every AI denial, pinned" `Quick test_ai_denials;
        Alcotest.test_case "every CT and CF denial, pinned" `Quick test_flow_denials;
        Alcotest.test_case "adaptive mimicry is harmless (§11.1)" `Quick
          test_adaptive_mimicry_is_harmless;
        Alcotest.test_case "partial mimicry caught (§11.1)" `Quick
          test_adaptive_partial_mimicry_caught;
        Alcotest.test_case "sockaddr fast path" `Quick test_sockaddr_paths;
        Alcotest.test_case "monitor stats" `Quick test_monitor_stats;
        Alcotest.test_case "runtime shadow sync" `Quick test_runtime_shadow_sync;
      ] );
  ]
