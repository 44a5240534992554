(* Argument-Integrity context analysis (§3.3, §6.3).

   Starting from the arguments of every sensitive system-call callsite,
   discover the set of *sensitive variables* — the arguments plus every
   variable in their use-def chains — via a field-sensitive,
   inter-procedural backward data-flow walk (§6.3.3):

   1. enumerate variables used as syscall arguments;
   2. traverse use-def chains backwards, adding defining variables;
   3. add writes to struct fields the chain flows through;
   4. when a chain reaches a function parameter, continue into every
      direct caller, additionally binding that argument position at the
      caller's callsite (the paper's bar()-callsite binding, Fig. 2).

   The result is the instrumentation plan: where ctx_write_mem must
   follow a store, and which argument positions of which callsites must
   be bound with ctx_bind_mem / ctx_bind_const. *)

type item =
  | S_local of string * Sil.Operand.var  (** function name, variable *)
  | S_global of string
  | S_field of string * string           (** struct name, field name *)

let item_compare = compare

module Item_set = Set.Make (struct
  type t = item

  let compare = item_compare
end)

(** How one argument position of a callsite is bound before the call. *)
type binding =
  | Bind_const of int64
  | Bind_cstr of string       (** constant string (rodata address) *)
  | Bind_faddr of string      (** constant function address *)
  | Bind_var of Sil.Operand.var
  | Bind_global of string

type plan = {
  pl_loc : Sil.Loc.t;            (** callsite in the ORIGINAL program *)
  pl_callee : string;
  pl_sysno : int option;         (** [Some nr] iff a syscall callsite *)
  mutable pl_args : (int * binding) list;  (** positions bound, ascending *)
}

type t = {
  items : Item_set.t;
  plans : (Sil.Loc.t, plan) Hashtbl.t;
}

let is_sensitive_local t fname v = Item_set.mem (S_local (fname, v)) t.items
let is_sensitive_global t g = Item_set.mem (S_global g) t.items
let is_sensitive_field t s f = Item_set.mem (S_field (s, f)) t.items

let sensitive_locals_of t fname =
  Item_set.fold
    (fun item acc ->
      match item with
      | S_local (f, v) when String.equal f fname -> v :: acc
      | S_local _ | S_global _ | S_field _ -> acc)
    t.items []

let sensitive_globals t =
  Item_set.fold
    (fun item acc -> match item with S_global g -> g :: acc | S_local _ | S_field _ -> acc)
    t.items []

let sensitive_fields t =
  Item_set.fold
    (fun item acc ->
      match item with S_field (s, f) -> (s, f) :: acc | S_local _ | S_global _ -> acc)
    t.items []

(* ------------------------------------------------------------------ *)
(* The worklist analysis                                               *)

(** All definitions of [v] inside [f]: [Assign (v, rv)] and
    [Store (Lvar v, op)] instructions. *)
let defs_of (f : Sil.Func.t) (v : Sil.Operand.var) =
  List.filter_map
    (fun (_, ins) ->
      match (ins : Sil.Instr.t) with
      | Assign (w, rv) when Sil.Operand.equal_var w v -> Some (`Rvalue rv)
      | Store (Lvar w, op) when Sil.Operand.equal_var w v -> Some (`Stored op)
      | Assign _ | Store _ | Call { dst = Some _; _ } when false -> None
      | Call { dst = Some w; _ } when Sil.Operand.equal_var w v -> Some `Call_result
      | Assign _ | Store _ | Call _ -> None)
    (Sil.Func.instrs f)

let param_index (f : Sil.Func.t) (v : Sil.Operand.var) =
  let rec go i = function
    | [] -> None
    | (w, _) :: rest ->
      if Sil.Operand.equal_var w v then Some i else go (i + 1) rest
  in
  go 0 f.params

let binding_of_operand (op : Sil.Operand.t) : binding =
  match op with
  | Const c -> Bind_const c
  | Null -> Bind_const 0L
  | Cstr s -> Bind_cstr s
  | Func_addr f -> Bind_faddr f
  | Var v -> Bind_var v
  | Global g -> Bind_global g

let analyze (prog : Sil.Prog.t) (cg : Sil.Callgraph.t) ~(sensitive_numbers : int list)
    : t =
  let items = ref Item_set.empty in
  let plans : (Sil.Loc.t, plan) Hashtbl.t = Hashtbl.create 64 in
  let work : item Queue.t = Queue.create () in
  let mark item =
    if not (Item_set.mem item !items) then begin
      items := Item_set.add item !items;
      Queue.push item work
    end
  in
  let mark_operand fname (op : Sil.Operand.t) =
    match op with
    | Var v -> mark (S_local (fname, v))
    | Global g -> mark (S_global g)
    | Const _ | Cstr _ | Func_addr _ | Null -> ()
  in
  let mark_place fname (p : Sil.Place.t) =
    match p with
    | Lvar v -> mark (S_local (fname, v))
    | Lglobal g -> mark (S_global g)
    | Lfield (_, s, f) -> mark (S_field (s, f))
    | Lindex _ | Lderef _ ->
      (* Writes through unanalysed pointers leave the shadow stale; the
         runtime detects the resulting mismatch (missing trace) rather
         than the analysis tracking it. *)
      ()
  in
  (* Create (or fetch) the callsite's plan: every sensitive syscall
     callsite gets one, even with no bindable arguments, so the monitor
     can recognise the callsite as traced. *)
  let ensure_plan ~(loc : Sil.Loc.t) ~callee ~sysno =
    match Hashtbl.find_opt plans loc with
    | Some p -> p
    | None ->
      let p = { pl_loc = loc; pl_callee = callee; pl_sysno = sysno; pl_args = [] } in
      Hashtbl.replace plans loc p;
      p
  in
  (* Bind position [pos] of the callsite at [loc] and mark the bound
     operand sensitive. *)
  let bind_at ~(loc : Sil.Loc.t) ~callee ~sysno ~pos (op : Sil.Operand.t) =
    let plan = ensure_plan ~loc ~callee ~sysno in
    if not (List.mem_assoc pos plan.pl_args) then begin
      plan.pl_args <- List.sort compare ((pos, binding_of_operand op) :: plan.pl_args);
      mark_operand loc.func op
    end
  in
  (* Seed: every argument of every sensitive syscall callsite. *)
  List.iter
    (fun (cs : Sil.Callgraph.callsite) ->
      match cs.cs_target with
      | Sil.Instr.Direct callee -> (
        match Hashtbl.find_opt prog.funcs callee with
        | Some stub -> (
          match Sil.Func.syscall_number stub with
          | Some nr when List.mem nr sensitive_numbers ->
            ignore (ensure_plan ~loc:cs.cs_loc ~callee ~sysno:(Some nr));
            List.iteri
              (fun pos op ->
                bind_at ~loc:cs.cs_loc ~callee ~sysno:(Some nr) ~pos op)
              cs.cs_args
          | Some _ | None -> ())
        | None -> ())
      | Sil.Instr.Indirect _ -> ())
    cg.callsites;
  (* Stores to a sensitive global/field make the stored value sensitive
     too (step 3 of §6.3.3).  The stores are indexed by target once, on
     first use, each target's list in layout order. *)
  let stores =
    lazy
      (let tbl = Hashtbl.create 64 in
       List.iter
         (fun ((loc : Sil.Loc.t), ins) ->
           match (ins : Sil.Instr.t) with
           | Store (Lglobal g, op) -> Hashtbl.add tbl (`Global g) (loc.func, op)
           | Store (Lfield (_, s, f), op) -> Hashtbl.add tbl (`Field (s, f)) (loc.func, op)
           | Store ((Lvar _ | Lindex _ | Lderef _), _) | Assign _ | Call _ -> ())
         (Sil.Prog.instrs prog);
       tbl)
  in
  let mark_stores_to target =
    List.iter
      (fun (fname, op) -> mark_operand fname op)
      (List.rev (Hashtbl.find_all (Lazy.force stores) target))
  in
  (* Propagate backwards until fixpoint. *)
  while not (Queue.is_empty work) do
    match Queue.pop work with
    | S_global g -> mark_stores_to (`Global g)
    | S_field (s, f) -> mark_stores_to (`Field (s, f))
    | S_local (fname, v) -> (
      match Hashtbl.find_opt prog.funcs fname with
      | None -> ()
      | Some f ->
        List.iter
          (fun def ->
            match def with
            | `Rvalue (Sil.Instr.Use op) -> mark_operand fname op
            | `Rvalue (Sil.Instr.Load place) -> mark_place fname place
            | `Rvalue (Sil.Instr.Addr_of place) ->
              (* A buffer whose address flows into a syscall argument is
                 itself sensitive: extended-argument checking compares
                 its contents against their shadow. *)
              mark_place fname place
            | `Rvalue (Sil.Instr.Binop (_, a, b)) ->
              mark_operand fname a;
              mark_operand fname b
            | `Stored op -> mark_operand fname op
            | `Call_result -> ())
          (defs_of f v);
        (* Inter-procedural step: a sensitive parameter propagates to
           every direct caller, binding that argument position at the
           caller's callsite (Fig. 2: ctx_bind_mem_3(&flags) before
           bar()).  For address-taken functions the same propagation
           covers every arity-compatible indirect callsite — the
           "all possible use-def chains" of §6.3.3, which is what lets
           the Argument-Integrity context see through COOP-style
           virtual-call dispatch. *)
        (match param_index f v with
        | None -> ()
        | Some pos ->
          List.iter
            (fun (caller_site : Sil.Loc.t) ->
              match Sil.Prog.instr_at prog caller_site with
              | Sil.Instr.Call { args; _ } when pos < List.length args ->
                bind_at ~loc:caller_site ~callee:fname ~sysno:None ~pos
                  (List.nth args pos)
              | Sil.Instr.Call _ | Sil.Instr.Assign _ | Sil.Instr.Store _ -> ())
            (Sil.Callgraph.direct_callers_of cg fname);
          if Sil.Callgraph.is_address_taken cg fname then
            List.iter
              (fun (cs : Sil.Callgraph.callsite) ->
                if List.length cs.cs_args = List.length f.params && pos < List.length cs.cs_args
                then
                  bind_at ~loc:cs.cs_loc ~callee:fname ~sysno:None ~pos
                    (List.nth cs.cs_args pos))
              cg.indirect_callsites))
  done;
  { items = !items; plans }

let plan_at t loc = Hashtbl.find_opt t.plans loc

let plan_count t = Hashtbl.length t.plans

let all_plans t = Hashtbl.fold (fun _ p acc -> p :: acc) t.plans []
