(* Static extraction of the syscall-flow digraph (the pre-filter spec):
   which sensitive syscall can trap immediately after which, and from
   which call-site class, on some benign execution of the instrumented
   program.

   The computation is the grammar-style FIRST/FOLLOW analysis lifted to
   the whole program.  Trap events are the *callsites* (direct calls to
   sensitive syscall stubs, plus indirect callsites when a sensitive
   stub is address-taken — the trap rip is the callsite address in both
   cases, so every event has a statically-known origin).  Per function
   we compute, by interprocedural fixpoint:

   - FIRST(f): the events that can be the first to trap during an
     invocation of f (through callees, transitively);
   - NULLABLE(f): f can return without trapping;
   - AFTER(f): the events that can trap immediately after f returns;

   and per event node, FOLLOW(n) = the events that can trap immediately
   after n — the automaton's successor set.  Everything over-approximates
   (extra edges never hurt soundness: in tiered mode a miss only falls
   through to the full monitor, and completeness keeps benign standalone
   runs alive); indirect calls are summarised by every address-taken,
   arity-matching app function, mirroring the reachability the linter
   uses. *)

module LSet = Sil.Loc.Set

(* One program point that can produce a trap event and/or transfer
   control into app callees.  Instructions that can do neither are not
   items. *)
type item = {
  it_loc : Sil.Loc.t;
  it_ev : bool;              (* may itself trap (event node at it_loc) *)
  it_sysno : int option;     (* Some n for a direct sensitive call *)
  it_callees : string list;  (* app functions possibly invoked *)
  it_null_self : bool;       (* may complete with no event regardless of callees *)
}

let extract (p : Bastion.Api.protected) : Defenses.Flow_prefilter.spec =
  let prog = p.inst.iprog in
  let sensitive = p.sensitive_numbers in
  let taken = Sil.Callgraph.address_taken_of prog in
  let stub_sysno fname =
    match Hashtbl.find_opt prog.funcs fname with
    | Some f -> (
      match Sil.Func.syscall_number f with
      | Some n when List.mem n sensitive -> Some n
      | Some _ | None -> None)
    | None -> None
  in
  let is_app fname =
    match Hashtbl.find_opt prog.funcs fname with
    | Some f -> (
      match f.kind with
      | Sil.Func.App_code -> true
      | Sil.Func.Syscall_stub _ | Sil.Func.Intrinsic _ -> false)
    | None -> false
  in
  (* Sensitive numbers a benign indirect call can reach: those of
     address-taken sensitive stubs. *)
  let indirect_sysnos =
    Sil.Callgraph.Sset.fold
      (fun fname acc ->
        match stub_sysno fname with Some n -> n :: acc | None -> acc)
      taken []
    |> List.sort_uniq compare
  in
  let indirect_may_trap = indirect_sysnos <> [] in
  (* Address-taken app functions by arity: the candidate targets of an
     indirect call (the linter's reachability uses the same cut). *)
  let taken_app_of_arity =
    let tbl : (int, string list) Hashtbl.t = Hashtbl.create 8 in
    Sil.Callgraph.Sset.iter
      (fun fname ->
        if is_app fname then begin
          let f = Hashtbl.find prog.funcs fname in
          let n = List.length f.params in
          let existing = Option.value ~default:[] (Hashtbl.find_opt tbl n) in
          Hashtbl.replace tbl n (fname :: existing)
        end)
      taken;
    fun n -> Option.value ~default:[] (Hashtbl.find_opt tbl n)
  in
  let item_of (loc : Sil.Loc.t) (ins : Sil.Instr.t) : item option =
    match ins with
    | Sil.Instr.Call { target = Sil.Instr.Direct callee; _ } -> (
      match stub_sysno callee with
      | Some n ->
        Some
          { it_loc = loc; it_ev = true; it_sysno = Some n; it_callees = [];
            it_null_self = false }
      | None ->
        if is_app callee then
          Some
            { it_loc = loc; it_ev = false; it_sysno = None; it_callees = [ callee ];
              it_null_self = false }
        else None)
    | Sil.Instr.Call { target = Sil.Instr.Indirect _; args; _ } ->
      let cands = List.filter is_app (taken_app_of_arity (List.length args)) in
      if indirect_may_trap then
        Some
          { it_loc = loc; it_ev = true; it_sysno = None; it_callees = cands;
            it_null_self = true }
      else if cands <> [] then
        Some
          { it_loc = loc; it_ev = false; it_sysno = None; it_callees = cands;
            it_null_self = true }
      else None
    | Sil.Instr.Assign _ | Sil.Instr.Store _ -> None
  in
  (* Per reachable function: its reachable blocks, each with its item
     list, successor labels and whether it can leave the function. *)
  let funcs : (string, (string * item array * string list * bool) list) Hashtbl.t =
    Hashtbl.create 32
  in
  let visit_queue = Queue.create () in
  let visit fname =
    if is_app fname && not (Hashtbl.mem funcs fname) then begin
      Hashtbl.replace funcs fname [];
      Queue.push fname visit_queue
    end
  in
  visit prog.entry;
  while not (Queue.is_empty visit_queue) do
    let fname = Queue.pop visit_queue in
    let f = Hashtbl.find prog.funcs fname in
    let reach = Sil.Cfg.reachable_blocks f in
    let blocks =
      List.filter_map
        (fun (b : Sil.Func.block) ->
          if not (Sil.Cfg.Sset.mem b.label reach) then None
          else begin
            let items = ref [] in
            Array.iteri
              (fun idx ins ->
                match item_of (Sil.Loc.make fname b.label idx) ins with
                | Some it -> items := it :: !items
                | None -> ())
              b.instrs;
            let leaves =
              match b.term with
              | Sil.Instr.Ret _ | Sil.Instr.Halt -> true
              | Sil.Instr.Jump _ | Sil.Instr.Branch _ -> false
            in
            Some
              ( b.label,
                Array.of_list (List.rev !items),
                Sil.Cfg.successors b.term,
                leaves )
          end)
        f.blocks
    in
    Hashtbl.replace funcs fname blocks;
    List.iter
      (fun (_, items, _, _) ->
        Array.iter (fun it -> List.iter visit it.it_callees) items)
      blocks
  done;
  (* --- interprocedural FIRST / NULLABLE fixpoint -------------------- *)
  let ffirst : (string, LSet.t) Hashtbl.t = Hashtbl.create 32 in
  let fnull : (string, bool) Hashtbl.t = Hashtbl.create 32 in
  let bfirst : (string * string, LSet.t) Hashtbl.t = Hashtbl.create 64 in
  let brnull : (string * string, bool) Hashtbl.t = Hashtbl.create 64 in
  let get_set tbl key = Option.value ~default:LSet.empty (Hashtbl.find_opt tbl key) in
  let get_bool tbl key = Option.value ~default:false (Hashtbl.find_opt tbl key) in
  let item_first it =
    let base = if it.it_ev then LSet.singleton it.it_loc else LSet.empty in
    List.fold_left (fun acc g -> LSet.union acc (get_set ffirst g)) base it.it_callees
  in
  let item_null it =
    it.it_null_self || List.exists (fun g -> get_bool fnull g) it.it_callees
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun fname blocks ->
        List.iter
          (fun (label, items, succs, leaves) ->
            let tail_first =
              List.fold_left
                (fun acc s -> LSet.union acc (get_set bfirst (fname, s)))
                LSet.empty succs
            in
            let tail_null =
              leaves || List.exists (fun s -> get_bool brnull (fname, s)) succs
            in
            let first = ref LSet.empty and null = ref true in
            Array.iter
              (fun it ->
                if !null then first := LSet.union !first (item_first it);
                null := !null && item_null it)
              items;
            if !null then first := LSet.union !first tail_first;
            let bn = !null && tail_null in
            if not (LSet.equal !first (get_set bfirst (fname, label))) then begin
              Hashtbl.replace bfirst (fname, label) !first;
              changed := true
            end;
            if bn <> get_bool brnull (fname, label) then begin
              Hashtbl.replace brnull (fname, label) bn;
              changed := true
            end)
          blocks;
        let f = Hashtbl.find prog.funcs fname in
        let entry = (Sil.Func.entry_block f).label in
        let ef = get_set bfirst (fname, entry) in
        let en = get_bool brnull (fname, entry) in
        if not (LSet.equal ef (get_set ffirst fname)) then begin
          Hashtbl.replace ffirst fname ef;
          changed := true
        end;
        if en <> get_bool fnull fname then begin
          Hashtbl.replace fnull fname en;
          changed := true
        end)
      funcs
  done;
  (* --- seccomp-stage argument facts ---------------------------------- *)
  (* The flow-insensitive value engine lives in {!Copyprop} (one
     implementation, shared with the {!Sccp} refinement).  On top of the
     copy facts we layer the sparse-conditional upgrade: a register
     argument whose binding {!Sccp} proves a single benign constant in
     the original program becomes a checkable singleton even where the
     flow-insensitive join gave up.  Only [Arg_rules.Direct] positions
     qualify — for pointer arguments the register carries an address,
     not the value the binding describes.  Benign completeness is
     preserved: [Known c] means the argument is [c] on every benign
     execution reaching the site, so the emitted equality check never
     fires on a benign run (and in tiered mode a mismatch only falls
     through to the full monitor). *)
  let copyprop = Copyprop.analyze prog in
  let sccp = lazy (Sccp.analyze p.original) in
  let meta_by_loc : (Sil.Loc.t, Bastion.Instrument.callsite_meta) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (cm : Bastion.Instrument.callsite_meta) ->
      Hashtbl.replace meta_by_loc cm.cm_loc cm)
    p.inst.callsites;
  let sccp_constant (loc : Sil.Loc.t) ~(sysno : int) ~(pos : int) : int64 option =
    match Bastion.Arg_rules.kind ~sysno ~pos with
    | Bastion.Arg_rules.Sockaddr | Bastion.Arg_rules.Extended -> None
    | Bastion.Arg_rules.Direct -> (
      match Hashtbl.find_opt meta_by_loc loc with
      | None -> None
      | Some cm -> (
        match List.assoc_opt pos cm.cm_specs with
        | Some (Bastion.Arg_analysis.Bind_var v) -> (
          match
            Sccp.value_of_operand (Lazy.force sccp) cm.cm_orig (Sil.Operand.Var v)
          with
          | Sccp.Known c -> Some c
          | Sccp.Top -> None)
        | Some (Bastion.Arg_analysis.Bind_global g) ->
          Sccp.frozen_global (Lazy.force sccp) g
        | Some
            ( Bastion.Arg_analysis.Bind_const _ | Bastion.Arg_analysis.Bind_cstr _
            | Bastion.Arg_analysis.Bind_faddr _ )
        | None -> None))
  in
  let facts_of (loc : Sil.Loc.t) (sysno : int option) =
    let base = Copyprop.facts_of_call copyprop loc in
    match sysno with
    | None -> base
    | Some sysno ->
      List.map
        (fun ((pos, f) : int * Defenses.Flow_prefilter.arg_fact) ->
          match f with
          | Defenses.Flow_prefilter.Fact_opaque -> (
            match sccp_constant loc ~sysno ~pos with
            | Some c -> (pos, Defenses.Flow_prefilter.Fact_set [ c ])
            | None -> (pos, f))
          | Defenses.Flow_prefilter.Fact_set _ | Defenses.Flow_prefilter.Fact_free
            ->
            (pos, f))
        base
  in
  (* --- per-item "what traps next inside this function" -------------- *)
  (* after.(j) = (FIRST of the remainder past item j, remainder can
     reach return with no event); computed right-to-left once FIRST and
     NULLABLE have converged. *)
  let item_after : (string, (item * LSet.t * bool) list) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun fname blocks ->
      let acc = ref [] in
      List.iter
        (fun (_, items, succs, leaves) ->
          let suf_first =
            ref
              (List.fold_left
                 (fun a s -> LSet.union a (get_set bfirst (fname, s)))
                 LSet.empty succs)
          in
          let suf_null =
            ref (leaves || List.exists (fun s -> get_bool brnull (fname, s)) succs)
          in
          for j = Array.length items - 1 downto 0 do
            let it = items.(j) in
            acc := (it, !suf_first, !suf_null) :: !acc;
            suf_first :=
              LSet.union (item_first it) (if item_null it then !suf_first else LSet.empty);
            suf_null := item_null it && !suf_null
          done)
        blocks;
      Hashtbl.replace item_after fname !acc)
    funcs;
  (* --- AFTER(f) fixpoint -------------------------------------------- *)
  let after : (string, LSet.t) Hashtbl.t = Hashtbl.create 32 in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun fname entries ->
        List.iter
          (fun ((it : item), suf_first, suf_null) ->
            if it.it_callees <> [] then begin
              let contribution =
                LSet.union suf_first
                  (if suf_null then get_set after fname else LSet.empty)
              in
              List.iter
                (fun g ->
                  let cur = get_set after g in
                  let next = LSet.union cur contribution in
                  if not (LSet.equal cur next) then begin
                    Hashtbl.replace after g next;
                    changed := true
                  end)
                it.it_callees
            end)
          entries)
      item_after
  done;
  (* --- FOLLOW per event node, and the spec --------------------------- *)
  let nodes = ref [] in
  Hashtbl.iter
    (fun fname entries ->
      List.iter
        (fun ((it : item), suf_first, suf_null) ->
          if it.it_ev then begin
            let succs =
              LSet.union suf_first
                (if suf_null then get_set after fname else LSet.empty)
            in
            let callee =
              match it.it_sysno with
              | Some n -> (
                match Sil.Prog.instr_at prog it.it_loc with
                | Sil.Instr.Call { target = Sil.Instr.Direct f; _ } -> f
                | _ -> Kernel.Syscalls.name n)
              | None -> "<indirect>"
            in
            nodes :=
              { Defenses.Flow_prefilter.ns_loc = it.it_loc; ns_callee = callee;
                ns_sysno = it.it_sysno; ns_facts = facts_of it.it_loc it.it_sysno;
                ns_succs = succs }
              :: !nodes
          end)
        entries)
    item_after;
  let sp_nodes =
    List.sort
      (fun (a : Defenses.Flow_prefilter.node_spec) b -> Sil.Loc.compare a.ns_loc b.ns_loc)
      !nodes
  in
  {
    Defenses.Flow_prefilter.sp_nodes;
    sp_starts = get_set ffirst prog.entry;
    sp_indirect_sysnos = indirect_sysnos;
  }

(* ------------------------------------------------------------------ *)
(* Deployment glue                                                     *)

(** Extract (or reuse) the spec and install it on a launched session:
    resolve node locations through the machine layout, attach the
    monitor's deploy-time argument knowledge, and hand the automaton to
    both the monitor and the process's seccomp filter. *)
let attach ?spec ~(mode : Kernel.Seccomp.flow_mode) (p : Bastion.Api.protected)
    ~(monitor : Bastion.Monitor.t) ~(process : Kernel.Process.t) :
    Kernel.Seccomp.flow_automaton =
  let spec = match spec with Some s -> s | None -> extract p in
  let fa =
    Defenses.Flow_prefilter.deploy spec ~layout:monitor.machine.layout ~mode
      ~info:(fun ~addr ~sysno -> Bastion.Monitor.prefilter_site_info monitor ~addr ~sysno)
  in
  Bastion.Monitor.install_prefilter monitor process fa;
  fa
