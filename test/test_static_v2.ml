(* Static pre-resolution v2 (DESIGN §12): the SCCP refinement law over
   random SIL programs, deadness beyond call-graph reachability, the
   taint analysis and its seeded source-mutation flip, and the
   monitor's tiered dispatch at run time (per-context hits and the
   unlisted-caller fallback, dead-site denial, the taint cheap path
   under both config settings). *)

module B = Sil.Builder
open Sil.Operand
module Cp = Bastion_analysis.Constprop
module Sccp = Bastion_analysis.Sccp
module Taint = Bastion_analysis.Taint
module Pre = Bastion_analysis.Preresolve

let i64 = Sil.Types.I64
let ptr = Sil.Types.Ptr Sil.Types.I64

(* --- the refinement law -------------------------------------------- *)

let prop_sccp_refines_constprop =
  QCheck.Test.make ~count:150
    ~name:"SCCP refines plain constprop (a Known is never lost, only gained)"
    QCheck.(small_list (int_range 0 1024))
    (fun codes ->
      let prog = Testlib.random_prog codes in
      let cp = Cp.analyze prog in
      let sccp = Sccp.analyze prog in
      List.for_all
        (fun (((loc : Sil.Loc.t), _) : Sil.Loc.t * Sil.Instr.t) ->
          let f = Sil.Prog.find_func prog loc.func in
          List.for_all
            (fun ((v, _) : Sil.Operand.var * Sil.Types.t) ->
              match Cp.value_of_operand cp loc (Var v) with
              | Cp.Known c ->
                Sccp.value_of_operand sccp loc (Var v) = Sccp.Known c
              | Cp.Top -> true)
            (Sil.Func.all_vars f))
        (Sil.Prog.instrs prog)
      &&
      match (Cp.frozen_global cp "g0", Sccp.frozen_global sccp "g0") with
      | Some a, Some b -> Int64.equal a b
      | None, _ -> true
      | Some _, None -> false)

(* Deadness beyond call-graph reachability: a call behind a branch on a
   frozen-false flag is reachable for the callgraph and dead for SCCP —
   the judgement the dead-site tier rests on. *)
let test_sccp_site_dead_beats_reachability () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_flag" i64 Sil.Prog.Zero;
  let fb = B.func pb "main" ~params:[] in
  let f = B.local fb "f" i64 in
  let r = B.local fb "r" i64 in
  B.load fb f (Sil.Place.Lglobal "g_flag");
  B.branch fb (Var f) "arm" "done";
  B.block fb "arm";
  B.call fb ~dst:r "setuid" [ const 0 ];
  B.jump fb "done";
  B.block fb "done";
  B.halt fb;
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let sccp = Sccp.analyze prog in
  let site =
    List.find_map
      (fun ((loc, _, target, _) :
             Sil.Loc.t * _ * Sil.Instr.call_target * Sil.Operand.t list) ->
        match target with
        | Sil.Instr.Direct "setuid" -> Some loc
        | _ -> None)
      (Sil.Prog.calls prog)
  in
  match site with
  | None -> Alcotest.fail "setuid callsite not found"
  | Some loc ->
    let cg = Sil.Callgraph.build prog in
    Alcotest.(check bool) "the callgraph has an edge to the stub" true
      (Sil.Callgraph.direct_callers_of cg "setuid" <> []);
    Alcotest.(check bool) "SCCP proves the site dead" true
      (Sccp.site_dead sccp loc);
    Alcotest.(check bool) "the live branch arm is not dead" false
      (Sccp.site_dead sccp (Sil.Loc.make "main" "entry" 0))

(* --- taint: sources, propagation, the seeded flip ------------------- *)

(* One program, two variants: the setuid argument comes either from a
   kernel-derived value (getpid — untainted) or from the buffer a read
   call filled (tainted).  The only difference is the def of [uid]. *)
let rank_prog ~tainted () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  let fb = B.func pb "main" ~params:[] in
  let buf = B.local fb "buf" i64 in
  let bufp = B.local fb "bufp" ptr in
  let uid = B.local fb "uid" i64 in
  let n = B.local fb "n" i64 in
  let r = B.local fb "r" i64 in
  B.addr_of fb bufp (Sil.Place.Lvar buf);
  B.call fb ~dst:n "read" [ const 0; Var bufp; const 8 ];
  (if tainted then B.load fb uid (Sil.Place.Lderef (Var bufp))
   else B.call fb ~dst:uid "getpid" []);
  B.call fb ~dst:r "setuid" [ Var uid ];
  B.halt fb;
  B.seal fb;
  (B.build pb ~entry:"main", buf, uid)

let setuid_loc prog =
  match
    List.find_map
      (fun ((loc, _, target, _) :
             Sil.Loc.t * _ * Sil.Instr.call_target * Sil.Operand.t list) ->
        match target with
        | Sil.Instr.Direct "setuid" -> Some loc
        | _ -> None)
      (Sil.Prog.calls prog)
  with
  | Some loc -> loc
  | None -> Alcotest.fail "setuid callsite not found"

let test_taint_source_and_propagation () =
  let prog, buf, uid = rank_prog ~tainted:true () in
  let t = Taint.analyze prog in
  Alcotest.(check bool) "read's buffer object is tainted" true
    (Taint.local_tainted t ~fname:"main" ~vid:buf.vid);
  Alcotest.(check bool) "the load from it is tainted" true
    (Taint.var_tainted_at t (setuid_loc prog) uid);
  Alcotest.(check bool) "no all-tainted collapse" false
    (Taint.tainted_everything t);
  let prog, _, uid = rank_prog ~tainted:false () in
  let t = Taint.analyze prog in
  Alcotest.(check bool) "a syscall result stays untainted" false
    (Taint.var_tainted_at t (setuid_loc prog) uid)

(* The setuid callsite's pos-0 rank in an enriched bundle, plus whether
   any pre-resolution record covers it. *)
let setuid_slot (p : Bastion.Api.protected) =
  List.find_map
    (fun (cm : Bastion.Instrument.callsite_meta) ->
      if cm.cm_sysno = Some (Kernel.Syscalls.number "setuid") then
        Some
          ( Option.bind
              (Hashtbl.find_opt p.slot_ranks cm.cm_id)
              (List.assoc_opt 0),
            Hashtbl.mem p.pre_resolved cm.cm_id
            || Hashtbl.mem p.pre_resolved_ctx cm.cm_id )
      else None)
    p.inst.callsites

let test_taint_mutation_flips_rank () =
  let enrich ~tainted =
    Pre.enrich (Bastion.Api.protect (let p, _, _ = rank_prog ~tainted () in p))
  in
  (match setuid_slot (enrich ~tainted:false) with
  | Some (Some false, false) -> ()
  | Some (rank, pre) ->
    Alcotest.failf "kernel-derived slot: rank=%s pre=%b"
      (match rank with
      | Some b -> string_of_bool b
      | None -> "unranked")
      pre
  | None -> Alcotest.fail "setuid callsite not found");
  match setuid_slot (enrich ~tainted:true) with
  | Some (Some true, false) -> ()
  | Some (Some false, _) ->
    Alcotest.fail "seeded tainted source did not flip the slot rank"
  | Some (_, true) ->
    Alcotest.fail "tainted slot was pre-resolved (the veto is broken)"
  | Some (None, _) -> Alcotest.fail "tainted slot lost its rank"
  | None -> Alcotest.fail "setuid callsite not found"

(* --- runtime: per-context resolution and its fallback ---------------- *)

(* A wrapper whose two callers pass different constants: the slot joins
   to Top (no plain record) but resolves per caller. *)
let ctx_prog () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  let fb = B.func pb "set_id" ~params:[ ("uid", i64) ] in
  let r = B.local fb "r" i64 in
  B.call fb ~dst:r "setuid" [ Var (B.param fb 0) ];
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  B.call fb "set_id" [ const 1000 ];
  B.call fb "set_id" [ const 0 ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let test_ctx_resolution_hits () =
  let p = Pre.enrich (Bastion.Api.protect (ctx_prog ())) in
  Alcotest.(check int) "no plain record (two caller constants)" 0
    (Hashtbl.length p.pre_resolved);
  Alcotest.(check int) "one per-context record" 1
    (Hashtbl.length p.pre_resolved_ctx);
  let triples = Hashtbl.fold (fun _ l _ -> l) p.pre_resolved_ctx [] in
  Alcotest.(check int) "one constant per caller" 2 (List.length triples);
  let session = Bastion.Api.launch p () in
  Testlib.check_exit (Machine.run session.machine);
  Alcotest.(check int) "both traps resolved against the caller frame" 2
    (Bastion.Monitor.ctx_resolved_hits session.monitor);
  Alcotest.(check int) "no plain static hits" 0
    (Bastion.Monitor.pre_resolved_hits session.monitor)

let test_ctx_unlisted_caller_falls_back () =
  let p = Pre.enrich (Bastion.Api.protect (ctx_prog ())) in
  (* Drop one caller's constant: that trap must fall back to the full
     dynamic path (and still pass), not get denied. *)
  let tbl = Hashtbl.copy p.pre_resolved_ctx in
  Hashtbl.iter
    (fun id (triples : (int * int * int64) list) ->
      match triples with
      | first :: _ :: _ -> Hashtbl.replace tbl id [ first ]
      | _ -> Alcotest.fail "expected two caller triples")
    p.pre_resolved_ctx;
  let p = { p with pre_resolved_ctx = tbl } in
  let session = Bastion.Api.launch p () in
  Testlib.check_exit (Machine.run session.machine);
  Alcotest.(check int) "only the listed caller resolves statically" 1
    (Bastion.Monitor.ctx_resolved_hits session.monitor)

(* --- runtime: dead-site denial --------------------------------------- *)

let dead_prog () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_flag" i64 Sil.Prog.Zero;
  let fb = B.func pb "main" ~params:[] in
  let f = B.local fb "f" i64 in
  let r = B.local fb "r" i64 in
  B.load fb f (Sil.Place.Lglobal "g_flag");
  B.branch fb (Var f) "arm" "done";
  B.block fb "arm";
  B.call fb ~dst:r "setuid" [ const 0 ];
  B.jump fb "done";
  B.block fb "done";
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

let test_dead_site_recorded_and_benign () =
  let p = Pre.enrich (Bastion.Api.protect (dead_prog ())) in
  Alcotest.(check int) "the guarded callsite is recorded dead" 1
    (Hashtbl.length p.dead_sites);
  let session = Bastion.Api.launch p () in
  Testlib.check_exit (Machine.run session.machine)

let test_dead_site_trap_denied () =
  let p = Pre.enrich (Bastion.Api.protect (dead_prog ())) in
  let session = Bastion.Api.launch p () in
  let m = session.machine in
  (* Flip the branch flag in real memory before main reads it: the
     machine walks into the provably-dead arm and the trap there must
     be denied outright, whatever the arguments look like. *)
  poke_at m "main" (fun m -> Machine.poke m (Machine.global_address m "g_flag") 1L);
  Testlib.check_fault (Machine.run m)
    (Testlib.is_monitor_kill ~context:"argument-integrity")
    "argument-integrity"

(* --- runtime: the taint cheap path ----------------------------------- *)

(* A global bound to setuid whose value is dynamic (stored from getpid)
   but untainted: ranked, cheap-path eligible, recipe = global address. *)
let cheap_prog () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_uid" i64 Sil.Prog.Zero;
  let fb = B.func pb "apply" ~params:[] in
  let r = B.local fb "r" i64 in
  B.call fb ~dst:r "setuid" [ Global "g_uid" ];
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  let u = B.local fb "u" i64 in
  B.call fb ~dst:u "getpid" [];
  B.store fb (Sil.Place.Lglobal "g_uid") (Var u);
  B.call fb "apply" [];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let launch_cheap ?(taint_cheap_path = true) () =
  let p = Pre.enrich (Bastion.Api.protect (cheap_prog ())) in
  Bastion.Api.launch
    ~monitor_config:
      { Bastion.Monitor.default_config with taint_cheap_path }
    p ()

let test_cheap_path_verifies_benign () =
  let session = launch_cheap () in
  Testlib.check_exit (Machine.run session.machine);
  let tainted, untainted = Bastion.Monitor.ai_rank_stats session.monitor in
  Alcotest.(check (pair int int)) "one untainted ranked check" (0, 1)
    (tainted, untainted)

let test_cheap_path_disabled_same_rank_counts () =
  let session = launch_cheap ~taint_cheap_path:false () in
  Testlib.check_exit (Machine.run session.machine);
  let tainted, untainted = Bastion.Monitor.ai_rank_stats session.monitor in
  Alcotest.(check (pair int int)) "rank split unchanged without cheap path"
    (0, 1) (tainted, untainted)

let test_cheap_path_detects_corruption () =
  List.iter
    (fun taint_cheap_path ->
      let session = launch_cheap ~taint_cheap_path () in
      let m = session.machine in
      poke_at m "apply" (fun m ->
          Machine.poke m (Machine.global_address m "g_uid") 999L);
      Testlib.check_fault (Machine.run m)
        (Testlib.is_monitor_kill ~context:"argument-integrity")
        "argument-integrity")
    [ true; false ]

let suites =
  [
    ( "static-v2",
      [
        QCheck_alcotest.to_alcotest prop_sccp_refines_constprop;
        Alcotest.test_case "site_dead beats call-graph reachability" `Quick
          test_sccp_site_dead_beats_reachability;
        Alcotest.test_case "taint sources and propagation" `Quick
          test_taint_source_and_propagation;
        Alcotest.test_case "seeded tainted source flips the slot rank" `Quick
          test_taint_mutation_flips_rank;
      ] );
    ( "static-v2-runtime",
      [
        Alcotest.test_case "per-context resolution hits" `Quick
          test_ctx_resolution_hits;
        Alcotest.test_case "unlisted caller falls back to the full path" `Quick
          test_ctx_unlisted_caller_falls_back;
        Alcotest.test_case "dead site recorded, benign run unaffected" `Quick
          test_dead_site_recorded_and_benign;
        Alcotest.test_case "trap at a dead site is denied" `Quick
          test_dead_site_trap_denied;
        Alcotest.test_case "cheap path verifies a benign untainted slot" `Quick
          test_cheap_path_verifies_benign;
        Alcotest.test_case "cheap path off: same rank split" `Quick
          test_cheap_path_disabled_same_rank_counts;
        Alcotest.test_case "corrupted untainted slot denied on both paths"
          `Quick test_cheap_path_detects_corruption;
      ] );
  ]
