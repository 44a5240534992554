(* The static soundness suite: CFG/dominator helpers, the generic
   dataflow engine, reaching definitions, interprocedural constant
   propagation, the metadata-soundness linter (clean on every workload
   model, and catching each seeded fault with the right diagnostic
   kind), and the constant-argument pre-resolution fast path. *)

module B = Sil.Builder
module Cfg = Sil.Cfg
module Lint = Bastion_analysis.Lint
module Cp = Bastion_analysis.Constprop
module Rd = Bastion_analysis.Reaching_defs
module Pre = Bastion_analysis.Preresolve

(* A diamond with a dead block:

     entry: y=0; branch x then else
     then:  y=1 -> join
     else:  y=2 -> join
     join:  z=y; ret z
     dead:  w=9 -> join          (unreachable)                        *)
let diamond () =
  let pb = B.program () in
  let fb = B.func pb "main" ~params:[ ("x", Sil.Types.I64) ] in
  let x = B.param fb 0 in
  let y = B.local fb "y" Sil.Types.I64 in
  let z = B.local fb "z" Sil.Types.I64 in
  let w = B.local fb "w" Sil.Types.I64 in
  B.set fb y (Sil.Operand.const 0);
  B.branch fb (Sil.Operand.Var x) "then" "else";
  B.block fb "then";
  B.set fb y (Sil.Operand.const 1);
  B.jump fb "join";
  B.block fb "else";
  B.set fb y (Sil.Operand.const 2);
  B.jump fb "join";
  B.block fb "join";
  B.set fb z (Sil.Operand.Var y);
  B.ret fb (Some (Sil.Operand.Var z));
  B.block fb "dead";
  B.set fb w (Sil.Operand.const 9);
  B.jump fb "join";
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  (Sil.Prog.find_func prog "main", y)

(* --- CFG helpers --------------------------------------------------- *)

let test_cfg_reachability () =
  let f, _ = diamond () in
  let reach = Cfg.reachable_blocks f in
  Alcotest.(check bool) "entry reachable" true (Cfg.Sset.mem "entry" reach);
  Alcotest.(check bool) "join reachable" true (Cfg.Sset.mem "join" reach);
  Alcotest.(check bool) "dead unreachable" false (Cfg.Sset.mem "dead" reach);
  let rpo = Cfg.reverse_postorder f in
  Alcotest.(check int) "rpo covers reachable blocks" 4 (List.length rpo);
  Alcotest.(check string) "rpo starts at entry" "entry" (List.hd rpo);
  (* The builder may append anonymous fallthrough blocks; the named
     predecessors must all be present. *)
  let preds =
    Option.value ~default:[] (Hashtbl.find_opt (Cfg.predecessors f) "join")
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("join pred " ^ p) true (List.mem p preds))
    [ "then"; "else"; "dead" ]

let test_cfg_dominators () =
  let f, _ = diamond () in
  let doms = Cfg.dominators f in
  Alcotest.(check bool) "entry dominates join" true (Cfg.dominates doms "entry" "join");
  Alcotest.(check bool) "then does not dominate join" false
    (Cfg.dominates doms "then" "join");
  Alcotest.(check bool) "join dominates itself" true (Cfg.dominates doms "join" "join");
  Alcotest.(check bool) "unreachable blocks have no dominator entry" true
    (Hashtbl.find_opt doms "dead" = None)

let test_cfg_successors () =
  Alcotest.(check (list string)) "jump" [ "a" ] (Cfg.successors (Sil.Instr.Jump "a"));
  Alcotest.(check (list string)) "branch" [ "a"; "b" ]
    (Cfg.successors (Sil.Instr.Branch (Sil.Operand.Null, "a", "b")));
  Alcotest.(check (list string)) "degenerate branch dedups" [ "a" ]
    (Cfg.successors (Sil.Instr.Branch (Sil.Operand.Null, "a", "a")));
  Alcotest.(check (list string)) "ret" [] (Cfg.successors (Sil.Instr.Ret None))

(* --- the dataflow engine: backward liveness ------------------------ *)

module Live = Bastion_analysis.Liveness
module SS = Live.SS

let test_backward_liveness () =
  let f, _ = diamond () in
  let r = Live.compute f in
  (* join reads y, so y is live into join and out of then/else... *)
  Alcotest.(check bool) "y live into join" true (SS.mem "y" (Live.live_in r "join"));
  (* ...but then/else redefine y, killing it on entry. *)
  Alcotest.(check bool) "y dead into then" false (SS.mem "y" (Live.live_in r "then"));
  (* entry defines y before the branch; nothing upstream needs it. *)
  Alcotest.(check bool) "y dead into entry" false (SS.mem "y" (Live.live_in r "entry"));
  (* the before-point inside join, past the read of y, has y dead *)
  Alcotest.(check bool) "y dead after its last read" false
    (SS.mem "y" (Live.live_before r (Sil.Loc.make "main" "join" 1)))

let test_liveness_terminator_uses () =
  let f, _ = diamond () in
  let r = Live.compute f in
  (* The branch condition x is a use carried by entry's terminator
     alone: live into the block and right before the terminator, but
     not *out* of it — live_out is the successors' join, and no
     successor reads x. *)
  Alcotest.(check bool) "x live into entry" true
    (SS.mem "x" (Live.live_in r "entry"));
  Alcotest.(check bool) "x live just before entry's terminator" true
    (SS.mem "x" (Live.live_before r (Sil.Loc.make "main" "entry" 1)));
  Alcotest.(check bool) "x not live out of entry" false
    (SS.mem "x" (Live.live_out r "entry"));
  (* x is never used past the branch. *)
  Alcotest.(check bool) "x dead into join" false
    (SS.mem "x" (Live.live_in r "join"));
  (* The ret operand z is a use carried by join's terminator: live
     after join's last instruction (the def of z). *)
  Alcotest.(check bool) "z live after its def" true
    (SS.mem "z" (Live.live_after r (Sil.Loc.make "main" "join" 0)));
  Alcotest.(check bool) "ret uses z" true
    (SS.mem "z"
       (Live.term_uses
          (Sil.Instr.Ret (Some (Sil.Operand.Var { Sil.Operand.vid = 0; vname = "z" })))))

let test_liveness_dead_stores () =
  let f, _ = diamond () in
  let r = Live.compute f in
  (* Two genuine dead stores: entry's y=0 is clobbered on both paths
     before join reads y, and the dead block's w is never read (the
     backward analysis does reach `dead` — it jumps to join, so it can
     reach an exit). *)
  let dead = Live.dead_stores r in
  Alcotest.(check int) "diamond has two dead stores" 2 (List.length dead);
  Alcotest.(check bool) "entry's clobbered def is dead" true
    (List.exists
       (fun (l : Sil.Loc.t) -> l.block = "entry" && l.index = 0)
       dead);
  Alcotest.(check bool) "the dead block's unread def is dead" true
    (List.exists (fun (l : Sil.Loc.t) -> l.block = "dead") dead);
  (* A straight-line function where the first def of y is clobbered
     before any read. *)
  let pb = B.program () in
  let fb = B.func pb "f" ~params:[] in
  let y = B.local fb "y" Sil.Types.I64 in
  B.set fb y (Sil.Operand.const 1);
  B.set fb y (Sil.Operand.const 2);
  B.ret fb (Some (Sil.Operand.Var y));
  B.seal fb;
  let prog = B.build pb ~entry:"f" in
  let g = Sil.Prog.find_func prog "f" in
  let dead = Live.dead_stores (Live.compute g) in
  Alcotest.(check int) "clobbered def is a dead store" 1 (List.length dead);
  Alcotest.(check int) "the first set is the dead one" 0
    (List.hd dead).Sil.Loc.index

(* --- reaching definitions ------------------------------------------ *)

let test_reaching_defs () =
  let f, y = diamond () in
  let rd = Rd.compute f in
  (* Before the read of y in join: the defs from then and else, and
     nothing else (the entry def is killed on both paths). *)
  let at_join = Rd.reaching rd (Sil.Loc.make "main" "join" 0) y in
  Alcotest.(check int) "two defs reach join" 2 (Sil.Loc.Set.cardinal at_join);
  Alcotest.(check bool) "then def reaches" true
    (Sil.Loc.Set.mem (Sil.Loc.make "main" "then" 0) at_join);
  Alcotest.(check bool) "else def reaches" true
    (Sil.Loc.Set.mem (Sil.Loc.make "main" "else" 0) at_join);
  Alcotest.(check bool) "no entry pseudo-def at join" false
    (Sil.Loc.Set.exists Rd.is_entry_def at_join);
  (* Before the first instruction of entry: only the pseudo-def. *)
  let at_entry = Rd.reaching rd (Sil.Loc.make "main" "entry" 0) y in
  Alcotest.(check bool) "entry pseudo-def before first def" true
    (Sil.Loc.Set.equal at_entry (Sil.Loc.Set.singleton (Rd.entry_def f y)));
  (* Unreachable point: empty set. *)
  Alcotest.(check bool) "unreachable point is empty" true
    (Sil.Loc.Set.is_empty (Rd.reaching rd (Sil.Loc.make "main" "dead" 0) y))

(* --- constant propagation ------------------------------------------ *)

(* Branch on a known condition, a frozen and a mutated global, an
   address-taken local, and constant folding. *)
let constprop_prog () =
  let pb = B.program () in
  B.global pb "gfroz" Sil.Types.I64 (Sil.Prog.Word 7L);
  B.global pb "gmut" Sil.Types.I64 (Sil.Prog.Word 1L);
  let fb = B.func pb "main" ~params:[] in
  let c = B.local fb "c" Sil.Types.I64 in
  let x = B.local fb "x" Sil.Types.I64 in
  let g = B.local fb "g" Sil.Types.I64 in
  let a = B.local fb "a" Sil.Types.I64 in
  let pa = B.local fb "pa" (Sil.Types.Ptr Sil.Types.I64) in
  let y = B.local fb "y" Sil.Types.I64 in
  B.set fb c (Sil.Operand.const 1);
  B.store fb (Sil.Place.Lglobal "gmut") (Sil.Operand.const 5);
  B.branch fb (Sil.Operand.Var c) "then" "else";
  B.block fb "then";
  B.set fb x (Sil.Operand.const 1);
  B.jump fb "join";
  B.block fb "else";
  B.set fb x (Sil.Operand.const 2);
  B.jump fb "join";
  B.block fb "join";
  B.set fb g (Sil.Operand.Global "gfroz");
  B.set fb a (Sil.Operand.const 3);
  B.addr_of fb pa (Sil.Place.Lvar a);
  B.binop fb y Sil.Instr.Add (Sil.Operand.Var x) (Sil.Operand.const 10);
  B.halt fb;
  B.seal fb;
  (B.build pb ~entry:"main", x, c, g, a, y)

let check_value msg expect got =
  Alcotest.(check string) msg
    (Format.asprintf "%a" Cp.pp_value expect)
    (Format.asprintf "%a" Cp.pp_value got)

let test_constprop_branch_folding () =
  let prog, x, c, _, _, _ = constprop_prog () in
  let cp = Cp.analyze prog in
  let at_join i op = Cp.value_of_operand cp (Sil.Loc.make "main" "join" i) op in
  check_value "condition constant" (Cp.Known 1L) (at_join 0 (Sil.Operand.Var c));
  (* The else edge folds away, so x is the then-value, not a join. *)
  check_value "x folded to the taken branch" (Cp.Known 1L)
    (at_join 0 (Sil.Operand.Var x));
  check_value "folded-away block is unreached (Top)" Cp.Top
    (Cp.value_of_operand cp (Sil.Loc.make "main" "else" 0) (Sil.Operand.Var c))

let test_constprop_globals_and_addr_taken () =
  let prog, _, _, g, a, y = constprop_prog () in
  let cp = Cp.analyze prog in
  Alcotest.(check (option int64)) "frozen global" (Some 7L) (Cp.frozen_global cp "gfroz");
  Alcotest.(check (option int64)) "stored-to global not frozen" None
    (Cp.frozen_global cp "gmut");
  let at_end op = Cp.value_of_operand cp (Sil.Loc.make "main" "join" 4) op in
  check_value "load of frozen global" (Cp.Known 7L) (at_end (Sil.Operand.Var g));
  check_value "address-taken local pinned to Top" Cp.Top (at_end (Sil.Operand.Var a));
  check_value "constant folding through Binop" (Cp.Known 11L)
    (at_end (Sil.Operand.Var y))

let test_constprop_interprocedural () =
  (* helper is always called with 5 -> its parameter summary is Known 5
     and the body folds; helper2 sees two different constants -> Top. *)
  let pb = B.program () in
  let fb = B.func pb "helper" ~params:[ ("a", Sil.Types.I64) ] in
  let hb = B.local fb "b" Sil.Types.I64 in
  B.binop fb hb Sil.Instr.Add (Sil.Operand.Var (B.param fb 0)) (Sil.Operand.const 1);
  B.ret fb (Some (Sil.Operand.Var hb));
  B.seal fb;
  let fb = B.func pb "helper2" ~params:[ ("a", Sil.Types.I64) ] in
  B.ret fb (Some (Sil.Operand.Var (B.param fb 0)));
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  let r = B.local fb "r" Sil.Types.I64 in
  B.call fb ~dst:r "helper" [ Sil.Operand.const 5 ];
  B.call fb ~dst:r "helper" [ Sil.Operand.const 5 ];
  B.call fb ~dst:r "helper2" [ Sil.Operand.const 1 ];
  B.call fb ~dst:r "helper2" [ Sil.Operand.const 2 ];
  B.halt fb;
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let cp = Cp.analyze prog in
  Alcotest.(check bool) "helper reached" true (Cp.reached cp "helper");
  (match Cp.summary cp "helper" with
  | Some [| v |] -> check_value "helper summary" (Cp.Known 5L) v
  | _ -> Alcotest.fail "expected a 1-slot summary for helper");
  (match Cp.summary cp "helper2" with
  | Some [| v |] -> check_value "helper2 summary joins to Top" Cp.Top v
  | _ -> Alcotest.fail "expected a 1-slot summary for helper2");
  (* The constant parameter folds inside the callee's body: just before
     the return point, b = a + 1 = 6. *)
  let fh = Sil.Prog.find_func prog "helper" in
  let entry = (Sil.Func.entry_block fh).label in
  check_value "callee body folds the summary" (Cp.Known 6L)
    (Cp.value_of_operand cp (Sil.Loc.make "helper" entry 1) (Sil.Operand.Var hb))

(* --- Sil.Validate error paths -------------------------------------- *)

let test_validate_dangling_block () =
  let pb = B.program () in
  let fb = B.func pb "main" ~params:[] in
  B.terminate fb (Sil.Instr.Jump "nowhere");
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let errors = Sil.Validate.check prog in
  Alcotest.(check bool) "dangling label reported" true
    (List.exists
       (fun (e : Sil.Validate.error) ->
         Astring.String.is_infix ~affix:"nowhere" e.message)
       errors)

let test_validate_aggregate_as_scalar () =
  let pb = B.program () in
  B.struct_ pb "pair" [ ("a", Sil.Types.I64); ("b", Sil.Types.I64) ];
  let fb = B.func pb "main" ~params:[] in
  let s = B.local fb "s" (Sil.Types.Struct "pair") in
  let x = B.local fb "x" Sil.Types.I64 in
  B.set fb x (Sil.Operand.Var s);
  B.halt fb;
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let errors = Sil.Validate.check prog in
  Alcotest.(check bool) "aggregate-as-scalar reported" true
    (List.exists
       (fun (e : Sil.Validate.error) ->
         Astring.String.is_infix ~affix:"aggregate" e.message)
       errors)

let test_validate_duplicate_function () =
  let pb = B.program () in
  let fb = B.func pb "dup" ~params:[] in
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  B.halt fb;
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  Alcotest.(check int) "well-formed before shadowing" 0
    (List.length (Sil.Validate.check prog));
  (* The function table tolerates shadowed bindings; the validator must
     not. *)
  Hashtbl.add prog.funcs "dup" (Sil.Prog.find_func prog "dup");
  let errors = Sil.Validate.check prog in
  Alcotest.(check bool) "duplicate name reported" true
    (List.exists
       (fun (e : Sil.Validate.error) ->
         Astring.String.is_infix ~affix:"more than once" e.message)
       errors)

let test_validate_unknown_call_dst () =
  let pb = B.program () in
  let fb = B.func pb "callee" ~params:[] in
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  B.emit fb
    (Sil.Instr.Call
       {
         dst = Some { Sil.Operand.vid = 9999; vname = "ghost" };
         target = Sil.Instr.Direct "callee";
         args = [];
       });
  B.halt fb;
  B.seal fb;
  let prog = B.build pb ~entry:"main" in
  let errors = Sil.Validate.check prog in
  Alcotest.(check bool) "unknown call destination reported" true
    (List.exists
       (fun (e : Sil.Validate.error) ->
         Astring.String.is_infix ~affix:"unknown variable" e.message)
       errors)

(* --- the linter: clean programs ------------------------------------ *)

let kinds diags = List.map (fun (d : Lint.diag) -> d.d_kind) diags

(* Clean = no error-severity diagnostics; warnings (dead-sensitive-store
   hygiene) are allowed on real models. *)
let check_clean name p =
  match Lint.errors (Lint.check p) with
  | [] -> ()
  | errs ->
    Alcotest.failf "%s: expected clean, got %d errors, first: %s" name
      (List.length errs)
      (Format.asprintf "%a" Lint.pp_diag (List.hd errs))

let test_models_lint_clean () =
  List.iter
    (fun (name, app) ->
      let p = Workloads.Drivers.protected_of app ~fs:false in
      check_clean name p;
      check_clean (name ^ "+preresolve")
        (Workloads.Drivers.protected_of ~pre_resolve:true app ~fs:false))
    [
      ("nginx", Workloads.Drivers.nginx ());
      ("sqlite", Workloads.Drivers.sqlite ());
      ("vsftpd", Workloads.Drivers.vsftpd ());
    ]

let test_fixture_lints_clean () =
  check_clean "exec_program" (Bastion.Api.protect (Testlib.exec_program ()));
  check_clean "exec_program+fs"
    (Bastion.Api.protect ~protect_filesystem:true (Testlib.exec_program ()))

(* --- the linter: seeded faults ------------------------------------- *)

let model_progs =
  [
    ("nginx", fun () -> Workloads.Nginx_model.build Workloads.Nginx_model.default);
    ("sqlite", fun () -> Workloads.Sqlite_model.build Workloads.Sqlite_model.default);
    ("vsftpd", fun () -> Workloads.Vsftpd_model.build Workloads.Vsftpd_model.default);
  ]

let is_write_mem_call (ins : Sil.Instr.t) =
  match ins with
  | Call { target = Direct callee; _ } ->
    String.equal callee Bastion.Instrument.write_mem_name
  | _ -> false

(* Replace the pair's ctx_write_mem call with a same-shape no-op so
   instruction indices (and so every Loc) stay stable. *)
let neuter_pair_call (b : Sil.Func.block) i =
  match b.instrs.(i) with
  | Sil.Instr.Assign (tmp, Sil.Instr.Addr_of _) when is_write_mem_call b.instrs.(i + 1)
    ->
    b.instrs.(i + 1) <- Sil.Instr.Assign (tmp, Sil.Instr.Use (Sil.Operand.Var tmp));
    true
  | _ -> false

let mutate_and_lint name mutate =
  List.concat_map
    (fun (mname, build) ->
      let p = Bastion.Api.protect (build ()) in
      mutate p;
      List.map (fun k -> (mname, k)) (kinds (Lint.check p)))
    model_progs
  |> fun all ->
  List.iter
    (fun (mname, _) ->
      if not (List.exists (fun (m, k) -> m = mname && k = name) all) then
        Alcotest.failf "%s: seeded fault not flagged as %s" mname
          (Lint.kind_name name))
    (List.map (fun (m, _) -> (m, ())) model_progs)

(* Drop one ctx_write_mem after a definition (not an entry-sync pair):
   the shadow for that variable goes stale -> Uncovered_def. *)
let drop_post_def_write_mem (p : Bastion.Api.protected) =
  let dropped = ref false in
  List.iter
    (fun (f : Sil.Func.t) ->
      match f.kind with
      | Sil.Func.App_code ->
        List.iter
          (fun (b : Sil.Func.block) ->
            if not !dropped then
              Array.iteri
                (fun i ins ->
                  if (not !dropped) && i + 2 < Array.length b.instrs then
                    match (ins : Sil.Instr.t) with
                    (* a def whose pair follows at i+1/i+2 *)
                    | Assign (v, _) | Call { dst = Some v; _ }
                      when Bastion.Arg_analysis.is_sensitive_local p.analysis
                             f.fname v ->
                      if neuter_pair_call b (i + 1) then dropped := true
                    | Store _ ->
                      if
                        (not (is_write_mem_call ins))
                        && neuter_pair_call b (i + 1)
                      then dropped := true
                    | _ -> ())
                b.instrs)
          f.blocks
      | _ -> ())
    (Sil.Prog.functions p.inst.iprog);
  if not !dropped then Alcotest.fail "no post-def ctx_write_mem pair found to drop"

let test_mutation_uncovered_def () =
  mutate_and_lint Lint.Uncovered_def drop_post_def_write_mem

(* Drop every entry-sync ctx_write_mem of one sensitive local. *)
let drop_entry_sync (p : Bastion.Api.protected) =
  let dropped = ref false in
  List.iter
    (fun (f : Sil.Func.t) ->
      if (not !dropped) && f.kind = Sil.Func.App_code then
        match Bastion.Arg_analysis.sensitive_locals_of p.analysis f.fname with
        | [] -> ()
        | v :: _ ->
          let fi = Sil.Prog.find_func p.inst.iprog f.fname in
          let entry = Sil.Func.entry_block fi in
          Array.iteri
            (fun i ins ->
              match (ins : Sil.Instr.t) with
              | Assign (_, Addr_of (Lvar v')) when v'.vid = v.Sil.Operand.vid ->
                if neuter_pair_call entry i then dropped := true
              | _ -> ())
            entry.instrs)
    (Sil.Prog.functions p.original);
  if not !dropped then Alcotest.fail "no entry-sync pair found to drop"

let test_mutation_missing_entry_sync () =
  mutate_and_lint Lint.Missing_entry_sync drop_entry_sync

(* Drop a CF edge: remove the valid-caller set of a function containing
   a sensitive callsite (not the entry function, not an indirect
   target), severing every chain up from it. *)
let drop_cf_edge (p : Bastion.Api.protected) =
  let candidate =
    Sil.Loc.Set.fold
      (fun (loc : Sil.Loc.t) acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if
            (not (String.equal loc.func p.inst.iprog.entry))
            && not (Bastion.Calltype.is_indirect_target p.calltype loc.func)
          then Some loc.func
          else None)
      p.cfg.sensitive_callsites None
  in
  match candidate with
  | Some fname -> Hashtbl.remove p.cfg.valid_callers fname
  | None -> Alcotest.fail "no severable sensitive callsite found"

let test_mutation_broken_cf_chain () =
  mutate_and_lint Lint.Broken_cf_chain drop_cf_edge

(* Misclassify an address-taken function as not (indirectly) callable. *)
let misclassify_address_taken (p : Bastion.Api.protected) =
  let icg = Sil.Callgraph.build p.inst.iprog in
  match Sil.Callgraph.Sset.choose_opt icg.address_taken with
  | Some fname -> Hashtbl.remove p.calltype.indirect_targets fname
  | None -> Alcotest.fail "model has no address-taken function"

let test_mutation_not_callable_misclass () =
  mutate_and_lint Lint.Not_callable_misclass misclassify_address_taken

(* A stale stored pre-resolution constant must be flagged. *)
(* --- the linter: metadata section tables ---------------------------- *)

(* A freshly written v3 file and its v2 rendering both validate clean;
   the parser's forward-compatible leniency (unknown optional sections)
   stays clean too. *)
let test_section_table_clean () =
  let p = Bastion.Api.protect (Testlib.exec_program ()) in
  let text = Bastion.Metadata_io.write p in
  Alcotest.(check int) "v3 write validates clean" 0
    (List.length (Lint.check_metadata_text text));
  let v2 =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
        if String.equal l Bastion.Metadata_io.header then
          Some Bastion.Metadata_io.header_v2
        else if String.starts_with ~prefix:"section " l then None
        else Some l)
    |> String.concat "\n"
  in
  Alcotest.(check int) "v2 files carry no table to validate" 0
    (List.length (Lint.check_metadata_text v2));
  let with_future =
    match String.split_on_char '\n' text with
    | hdr :: rest ->
      String.concat "\n"
        (hdr :: "section zfuture 1 optional" :: "future-record 0" :: rest)
    | [] -> assert false
  in
  Alcotest.(check int) "unknown optional section is fine" 0
    (List.length (Lint.check_metadata_text with_future))

(* Each deployment-soundness violation the parser deliberately does not
   enforce: wrong flag on a known section (both directions), duplicate
   sections, missing required section — plus a parse failure folding
   into one positioned diagnostic. *)
let test_section_table_violations () =
  let p = Bastion.Api.protect (Testlib.exec_program ()) in
  let text = Bastion.Metadata_io.write p in
  let expect_msgs label f msgs =
    let ds = Lint.check_metadata_text (f text) in
    List.iter
      (fun (d : Lint.diag) ->
        Alcotest.(check bool) (label ^ ": error severity") true
          (d.d_sev = Lint.Error);
        Alcotest.(check string) (label ^ ": kind") "malformed-section-table"
          (Lint.kind_name d.d_kind))
      ds;
    List.iter
      (fun m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: a diagnostic mentions %S" label m)
          true
          (List.exists
             (fun (d : Lint.diag) -> Astring.String.is_infix ~affix:m d.d_msg)
             ds))
      msgs
  in
  expect_msgs "required section renamed away"
    (Str.replace_first
       (Str.regexp "section cfg \\([0-9]+\\) required")
       "section cfg-renamed \\1 optional")
    [ "missing required section \"cfg\"" ];
  expect_msgs "soundness section flagged optional"
    (fun t ->
      Str.replace_first (Str.regexp "section cfg \\([0-9]+\\) required")
        "section cfg \\1 optional" t)
    [ "must be flagged required" ];
  expect_msgs "optional section flagged required"
    (fun t ->
      Str.replace_first (Str.regexp "section static \\([0-9]+\\) optional")
        "section static \\1 required" t)
    [ "must be flagged optional" ];
  expect_msgs "duplicated section"
    (fun t ->
      t ^ "section static 0 optional\n")
    [ "duplicate section \"static\"" ];
  (* A file that does not parse folds into one positioned diagnostic. *)
  match Lint.check_metadata_text "BASTION-METADATA v3\ncalltype 59 d" with
  | [ d ] ->
    Alcotest.(check bool) "positioned" true
      (Astring.String.is_infix ~affix:"line 2" d.d_msg);
    Alcotest.(check bool) "carries the parser message" true
      (Astring.String.is_infix ~affix:"record outside any section" d.d_msg)
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let test_mutation_stale_pre_resolution () =
  let app = Workloads.Drivers.nginx () in
  let p = Pre.enrich (Bastion.Api.protect (Lazy.force app.prog)) in
  Alcotest.(check bool) "nginx has pre-resolved slots" true
    (Hashtbl.length p.pre_resolved > 0);
  let id, slots =
    Hashtbl.fold (fun id l _ -> (id, l)) p.pre_resolved (-1, [])
  in
  (match slots with
  | (pos, c) :: rest ->
    Hashtbl.replace p.pre_resolved id ((pos, Int64.add c 1L) :: rest)
  | [] -> Alcotest.fail "empty pre-resolved slot list");
  Alcotest.(check bool) "stale constant flagged" true
    (List.mem Lint.Stale_pre_resolution (kinds (Lint.check p)))

(* --- pre-resolution: priced win and attack invariance --------------- *)

let test_pre_resolution_cycle_win () =
  let app = Workloads.Drivers.nginx () in
  let off = Workloads.Drivers.run app Workloads.Drivers.Bastion_full in
  let on =
    Workloads.Drivers.run ~pre_resolve:true app Workloads.Drivers.Bastion_full
  in
  Alcotest.(check bool) "monitored cycles shrink" true (on.m_cycles < off.m_cycles);
  Alcotest.(check int) "same traps" off.m_traps on.m_traps;
  Alcotest.(check int) "same syscalls" off.m_syscalls on.m_syscalls;
  (match on.m_monitor with
  | Some m ->
    Alcotest.(check bool) "static AI verifications happened" true
      (Bastion.Monitor.pre_resolved_hits m > 0)
  | None -> Alcotest.fail "monitored run lost its monitor");
  match off.m_monitor with
  | Some m ->
    Alcotest.(check int) "no static verifications without pre-resolution" 0
      (Bastion.Monitor.pre_resolved_hits m)
  | None -> Alcotest.fail "monitored run lost its monitor"

(* The matrix compares WHAT blocked (context attribution), not the
   denial's free-text detail: when pre-resolution catches a corrupted
   argument it reports the argument slot where the shadow path reports
   the corrupted variable — same verdict, same context, different
   sentence. *)
let outcome_sig (o : Attacks.Runner.outcome) =
  match o with
  | Attacks.Runner.Succeeded -> "succeeded"
  | Attacks.Runner.Inert -> "inert"
  | Attacks.Runner.Blocked (Machine.Monitor_kill { context; _ }) ->
    "blocked:monitor:" ^ context
  | Attacks.Runner.Blocked f -> "blocked:" ^ Machine.fault_to_string f

let row_sig (r : Attacks.Runner.row) =
  ( r.r_attack.a_id,
    outcome_sig r.r_undefended,
    outcome_sig r.r_ct,
    outcome_sig r.r_cf,
    outcome_sig r.r_ai,
    outcome_sig r.r_full )

let test_attack_matrix_invariant_under_pre_resolution () =
  let off = List.map row_sig (Attacks.Runner.evaluate_all ()) in
  let on = List.map row_sig (Attacks.Runner.evaluate_all ~pre_resolve:true ()) in
  List.iter2
    (fun (id, u, ct, cf, ai, full) (id', u', ct', cf', ai', full') ->
      Alcotest.(check string) "same attack" id id';
      Alcotest.(check string) (id ^ " undefended") u u';
      Alcotest.(check string) (id ^ " ct") ct ct';
      Alcotest.(check string) (id ^ " cf") cf cf';
      Alcotest.(check string) (id ^ " ai") ai ai';
      Alcotest.(check string) (id ^ " full") full full')
    off on

let test_bench_static_artifact () =
  Testlib.Artifacts.(holds (static ~fast:(committed fastpath_file) (committed static_file)))

let suites =
  [
    ( "static-cfg",
      [
        Alcotest.test_case "reachability and rpo" `Quick test_cfg_reachability;
        Alcotest.test_case "dominators" `Quick test_cfg_dominators;
        Alcotest.test_case "successors" `Quick test_cfg_successors;
      ] );
    ( "static-dataflow",
      [
        Alcotest.test_case "backward liveness" `Quick test_backward_liveness;
        Alcotest.test_case "liveness terminator uses" `Quick
          test_liveness_terminator_uses;
        Alcotest.test_case "liveness dead stores" `Quick test_liveness_dead_stores;
        Alcotest.test_case "reaching definitions" `Quick test_reaching_defs;
        Alcotest.test_case "constprop branch folding" `Quick
          test_constprop_branch_folding;
        Alcotest.test_case "constprop globals and address-taken" `Quick
          test_constprop_globals_and_addr_taken;
        Alcotest.test_case "constprop interprocedural summaries" `Quick
          test_constprop_interprocedural;
      ] );
    ( "validate-errors",
      [
        Alcotest.test_case "dangling block reference" `Quick
          test_validate_dangling_block;
        Alcotest.test_case "aggregate used as scalar" `Quick
          test_validate_aggregate_as_scalar;
        Alcotest.test_case "duplicate function names" `Quick
          test_validate_duplicate_function;
        Alcotest.test_case "call result to unknown variable" `Quick
          test_validate_unknown_call_dst;
      ] );
    ( "lint",
      [
        Alcotest.test_case "fixture lints clean" `Quick test_fixture_lints_clean;
        Alcotest.test_case "all workload models lint clean" `Quick
          test_models_lint_clean;
        Alcotest.test_case "mutation: dropped ctx_write_mem" `Quick
          test_mutation_uncovered_def;
        Alcotest.test_case "mutation: dropped entry sync" `Quick
          test_mutation_missing_entry_sync;
        Alcotest.test_case "mutation: dropped CF edge" `Quick
          test_mutation_broken_cf_chain;
        Alcotest.test_case "mutation: misclassified address-taken" `Quick
          test_mutation_not_callable_misclass;
        Alcotest.test_case "section table: clean files validate clean" `Quick
          test_section_table_clean;
        Alcotest.test_case "section table: violations are diagnosed" `Quick
          test_section_table_violations;
        Alcotest.test_case "mutation: stale pre-resolution" `Quick
          test_mutation_stale_pre_resolution;
      ] );
    ( "pre-resolution",
      [
        Alcotest.test_case "cycle win on nginx" `Quick test_pre_resolution_cycle_win;
        Alcotest.test_case "Table 6 invariant under pre-resolution" `Slow
          test_attack_matrix_invariant_under_pre_resolution;
        Alcotest.test_case "bench artifact shape" `Quick test_bench_static_artifact;
      ] );
  ]
