(* Interprocedural copy/value propagation over argument facts (the
   flowgraph's value engine, factored out so the SCCP refinement and
   the syscall-flow extraction share one implementation).

   Classifies each operand at a reachable program point as one of the
   pre-filter's argument facts: a finite set of benign constants
   (register-checkable), a kernel-derived dynamic value (syscall
   results flowing through locals and parameters only), or an opaque
   memory-dependent value (loads, globals, indirect results).  The
   analysis is flow-insensitive per variable — a variable's fact is the
   join over every definition and every caller's matching argument —
   with demand-driven memoisation and stack-based cycle breaking.
   Joins over-approximate the benign values, so an emitted check never
   kills a benign run. *)

type fact = Defenses.Flow_prefilter.arg_fact =
  | Fact_set of int64 list
  | Fact_free
  | Fact_opaque

let set_cap = 16

let join a b =
  match (a, b) with
  | Defenses.Flow_prefilter.Fact_opaque, _ | _, Defenses.Flow_prefilter.Fact_opaque
    ->
    Defenses.Flow_prefilter.Fact_opaque
  | Defenses.Flow_prefilter.Fact_free, _ | _, Defenses.Flow_prefilter.Fact_free ->
    Defenses.Flow_prefilter.Fact_free
  | Defenses.Flow_prefilter.Fact_set xs, Defenses.Flow_prefilter.Fact_set ys ->
    let u = List.sort_uniq Int64.compare (List.rev_append xs ys) in
    if List.length u > set_cap then Defenses.Flow_prefilter.Fact_opaque
    else Defenses.Flow_prefilter.Fact_set u

type t = {
  cy_prog : Sil.Prog.t;
  cy_taken : Sil.Callgraph.Sset.t;  (** address-taken functions *)
  cy_reach : (string, unit) Hashtbl.t;  (** reachable app functions *)
  cy_direct_args : (string, (string * Sil.Operand.t list) list) Hashtbl.t;
  cy_indirect_args : (int, (string * Sil.Operand.t list) list) Hashtbl.t;
  cy_memo : (string, Defenses.Flow_prefilter.arg_fact) Hashtbl.t;
}

let is_app_of prog fname =
  match Hashtbl.find_opt prog.Sil.Prog.funcs fname with
  | Some (f : Sil.Func.t) -> (
    match f.kind with
    | Sil.Func.App_code -> true
    | Sil.Func.Syscall_stub _ | Sil.Func.Intrinsic _ -> false)
  | None -> false

let is_stub_of prog fname =
  match Hashtbl.find_opt prog.Sil.Prog.funcs fname with
  | Some f -> Sil.Func.is_syscall_stub f
  | None -> false

let analyze (prog : Sil.Prog.t) : t =
  let taken = Sil.Callgraph.address_taken_of prog in
  let is_app = is_app_of prog in
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
  (* Reachable app functions, visiting only reachable blocks; indirect
     calls reach every address-taken, arity-matching app function. *)
  let reach : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let visit_queue = Queue.create () in
  let visit fname =
    if is_app fname && not (Hashtbl.mem reach fname) then begin
      Hashtbl.replace reach fname ();
      Queue.push fname visit_queue
    end
  in
  visit prog.entry;
  while not (Queue.is_empty visit_queue) do
    let fname = Queue.pop visit_queue in
    let f = Hashtbl.find prog.funcs fname in
    let r = Sil.Cfg.reachable_blocks f in
    List.iter
      (fun (b : Sil.Func.block) ->
        if Sil.Cfg.Sset.mem b.label r then
          Array.iter
            (fun (ins : Sil.Instr.t) ->
              match ins with
              | Sil.Instr.Call { target = Sil.Instr.Direct callee; _ } ->
                if is_app callee then visit callee
              | Sil.Instr.Call { target = Sil.Instr.Indirect _; args; _ } ->
                List.iter visit (taken_app_of_arity (List.length args))
              | Sil.Instr.Assign _ | Sil.Instr.Store _ -> ())
            b.instrs)
      f.blocks
  done;
  (* Direct/indirect callsite argument index over the reachable app
     functions (the only callers that can benignly execute). *)
  let direct_args : (string, (string * Sil.Operand.t list) list) Hashtbl.t =
    Hashtbl.create 32
  in
  let indirect_args : (int, (string * Sil.Operand.t list) list) Hashtbl.t =
    Hashtbl.create 8
  in
  Hashtbl.iter
    (fun fname () ->
      let f = Hashtbl.find prog.funcs fname in
      let r = Sil.Cfg.reachable_blocks f in
      List.iter
        (fun (b : Sil.Func.block) ->
          if Sil.Cfg.Sset.mem b.label r then
            Array.iter
              (fun (ins : Sil.Instr.t) ->
                match ins with
                | Sil.Instr.Call { target = Sil.Instr.Direct g; args; _ }
                  when is_app g ->
                  let cur =
                    Option.value ~default:[] (Hashtbl.find_opt direct_args g)
                  in
                  Hashtbl.replace direct_args g ((fname, args) :: cur)
                | Sil.Instr.Call { target = Sil.Instr.Indirect _; args; _ } ->
                  let n = List.length args in
                  let cur =
                    Option.value ~default:[] (Hashtbl.find_opt indirect_args n)
                  in
                  Hashtbl.replace indirect_args n ((fname, args) :: cur)
                | Sil.Instr.Call _ | Sil.Instr.Assign _ | Sil.Instr.Store _ -> ())
              b.instrs)
        f.blocks)
    reach;
  {
    cy_prog = prog;
    cy_taken = taken;
    cy_reach = reach;
    cy_direct_args = direct_args;
    cy_indirect_args = indirect_args;
    cy_memo = Hashtbl.create 64;
  }

let reachable (t : t) fname = Hashtbl.mem t.cy_reach fname

let rec eval_operand (t : t) fname (op : Sil.Operand.t) stack =
  match op with
  | Sil.Operand.Const c -> Defenses.Flow_prefilter.Fact_set [ c ]
  | Sil.Operand.Null -> Defenses.Flow_prefilter.Fact_set [ 0L ]
  | Sil.Operand.Var v -> eval_var t fname v stack
  | Sil.Operand.Cstr _ | Sil.Operand.Global _ | Sil.Operand.Func_addr _ ->
    Defenses.Flow_prefilter.Fact_opaque

and eval_rvalue (t : t) fname (rv : Sil.Instr.rvalue) stack =
  match rv with
  | Sil.Instr.Use op -> eval_operand t fname op stack
  | Sil.Instr.Load _ | Sil.Instr.Addr_of _ -> Defenses.Flow_prefilter.Fact_opaque
  | Sil.Instr.Binop (bop, a, b) -> (
    match (eval_operand t fname a stack, eval_operand t fname b stack) with
    | Defenses.Flow_prefilter.Fact_opaque, _ | _, Defenses.Flow_prefilter.Fact_opaque
      ->
      Defenses.Flow_prefilter.Fact_opaque
    | Defenses.Flow_prefilter.Fact_set xs, Defenses.Flow_prefilter.Fact_set ys ->
      let u =
        List.concat_map (fun x -> List.map (Sil.Instr.eval_binop bop x) ys) xs
        |> List.sort_uniq Int64.compare
      in
      if List.length u > set_cap then Defenses.Flow_prefilter.Fact_opaque
      else Defenses.Flow_prefilter.Fact_set u
    | _, _ -> Defenses.Flow_prefilter.Fact_free)

and eval_return (t : t) gname stack =
  if not (Hashtbl.mem t.cy_reach gname) then Defenses.Flow_prefilter.Fact_opaque
  else begin
    let key = "r:" ^ gname in
    match Hashtbl.find_opt t.cy_memo key with
    | Some f -> f
    | None ->
      if List.mem key stack then Defenses.Flow_prefilter.Fact_opaque
      else begin
        let stack = key :: stack in
        let g = Hashtbl.find t.cy_prog.funcs gname in
        let reach = Sil.Cfg.reachable_blocks g in
        let facts = ref [] in
        List.iter
          (fun (b : Sil.Func.block) ->
            if Sil.Cfg.Sset.mem b.label reach then
              match b.term with
              | Sil.Instr.Ret (Some op) ->
                facts := eval_operand t gname op stack :: !facts
              | Sil.Instr.Ret None | Sil.Instr.Halt | Sil.Instr.Jump _
              | Sil.Instr.Branch _ -> ())
          g.blocks;
        let r =
          match !facts with
          | [] -> Defenses.Flow_prefilter.Fact_opaque
          | f :: rest -> List.fold_left join f rest
        in
        Hashtbl.replace t.cy_memo key r;
        r
      end
  end

and eval_var (t : t) fname (v : Sil.Operand.var) stack =
  let key = Printf.sprintf "v:%s:%d" fname v.vid in
  match Hashtbl.find_opt t.cy_memo key with
  | Some f -> f
  | None ->
    if List.mem key stack then Defenses.Flow_prefilter.Fact_opaque
    else begin
      let stack = key :: stack in
      let f = Hashtbl.find t.cy_prog.funcs fname in
      let facts = ref [] in
      List.iter
        (fun ((_, ins) : Sil.Loc.t * Sil.Instr.t) ->
          match ins with
          | Sil.Instr.Assign (d, rv) when d.vid = v.vid ->
            facts := eval_rvalue t fname rv stack :: !facts
          | Sil.Instr.Call { dst = Some d; target; _ } when d.vid = v.vid -> (
            match target with
            | Sil.Instr.Direct g ->
              if is_stub_of t.cy_prog g then
                (* A syscall result: kernel-derived, not forgeable
                   through tracee memory writes. *)
                facts := Defenses.Flow_prefilter.Fact_free :: !facts
              else if is_app_of t.cy_prog g then
                facts := eval_return t g stack :: !facts
              else facts := Defenses.Flow_prefilter.Fact_opaque :: !facts
            | Sil.Instr.Indirect _ ->
              facts := Defenses.Flow_prefilter.Fact_opaque :: !facts)
          | Sil.Instr.Assign _ | Sil.Instr.Call _ | Sil.Instr.Store _ -> ())
        (Sil.Func.instrs f);
      (* Parameter inflow: join the matching argument of every
         reachable callsite (direct, plus indirect when the function
         is address-taken with matching arity). *)
      (match
         List.find_index
           (fun ((p, _) : Sil.Operand.var * _) -> p.vid = v.vid)
           f.params
       with
      | None -> ()
      | Some i ->
        let arity = List.length f.params in
        let callers =
          Option.value ~default:[] (Hashtbl.find_opt t.cy_direct_args fname)
          @
          if Sil.Callgraph.Sset.mem fname t.cy_taken then
            Option.value ~default:[] (Hashtbl.find_opt t.cy_indirect_args arity)
          else []
        in
        List.iter
          (fun (caller, args) ->
            match List.nth_opt args i with
            | Some op -> facts := eval_operand t caller op stack :: !facts
            | None -> facts := Defenses.Flow_prefilter.Fact_opaque :: !facts)
          callers);
      let r =
        match !facts with
        | [] -> Defenses.Flow_prefilter.Fact_opaque
        | f0 :: rest -> List.fold_left join f0 rest
      in
      Hashtbl.replace t.cy_memo key r;
      r
    end

(** The fact of [op] evaluated in function [fname]. *)
let fact_of_operand (t : t) fname (op : Sil.Operand.t) :
    Defenses.Flow_prefilter.arg_fact =
  eval_operand t fname op []

(** Per-position facts of the call at [loc] (empty for non-calls). *)
let facts_of_call (t : t) (loc : Sil.Loc.t) :
    (int * Defenses.Flow_prefilter.arg_fact) list =
  match Sil.Prog.instr_at t.cy_prog loc with
  | Sil.Instr.Call { args; _ } ->
    List.mapi (fun i op -> (i, eval_operand t loc.func op [])) args
  | Sil.Instr.Assign _ | Sil.Instr.Store _ -> []
