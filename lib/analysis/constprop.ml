(* Interprocedural constant propagation over SIL (the pre-resolution
   pass of the static soundness suite).

   Per function, a forward dataflow over a flat lattice: a variable is
   [Known c] when every analysed path assigns it the same constant, and
   [Top] otherwise.  The transfer is deliberately conservative about
   memory:

   - address-taken locals are always [Top] (any store through a pointer
     may alias them);
   - uninitialised locals are [Top] (a reused stack slot holds
     garbage, never a defined constant);
   - globals fold only when "frozen": scalar-initialised, never stored
     to and never address-taken anywhere in the program;
   - loads, [Addr_of] and call results are [Top].

   Branches whose condition folds to a constant propagate along the
   taken edge only, so a constant killed on a dead arm stays constant.

   Across functions, per-parameter summaries are joined over every
   direct callsite and iterated to fixpoint from the entry function;
   address-taken functions are callable from indirect callsites with
   unknown arguments, so their parameters are pinned at [Top].  The
   result is a sound "provably constant along all paths" judgement: a
   [Known c] operand at a location evaluates to [c] in every benign
   execution reaching it. *)

module Vmap = Map.Make (Int)
module Iset = Set.Make (Int)

type value = Top | Known of int64

let value_equal a b =
  match (a, b) with
  | Top, Top -> true
  | Known x, Known y -> Int64.equal x y
  | Top, Known _ | Known _, Top -> false

let value_join a b =
  match (a, b) with
  | Known x, Known y when Int64.equal x y -> a
  | _ -> Top

let pp_value fmt = function
  | Top -> Format.pp_print_string fmt "⊤"
  | Known c -> Format.fprintf fmt "%Ld" c

module L = struct
  (* A variable missing from the map is Top; only Known values are
     stored, so the join keeps exactly the agreeing constants. *)
  type t = value Vmap.t

  let equal = Vmap.equal value_equal

  let join a b =
    Vmap.merge
      (fun _ x y ->
        match (x, y) with
        | Some (Known vx), Some (Known vy) when Int64.equal vx vy -> x
        | _ -> None)
      a b
end

module Df = Dataflow.Make (L)

(* Per-function evaluation context. *)
type fctx = {
  fx_addr_taken : Iset.t;  (** vids whose address is taken in the function *)
  fx_frozen : (string, int64) Hashtbl.t;
}

type t = {
  cp_prog : Sil.Prog.t;
  cp_frozen : (string, int64) Hashtbl.t;
  cp_ctx : (string, fctx) Hashtbl.t;
  cp_results : (string, Df.result) Hashtbl.t;
  cp_summaries : (string, value array) Hashtbl.t;
      (** per function: join of argument vectors over analysed callsites *)
}

(** Globals whose value is the same word for the whole run: scalar
    initialiser, never stored to, never address-taken. *)
let frozen_globals (prog : Sil.Prog.t) : (string, int64) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (g : Sil.Prog.global) ->
      match (g.gty, g.ginit) with
      | (Sil.Types.I64 | Sil.Types.Ptr _), Sil.Prog.Zero ->
        Hashtbl.replace tbl g.gname 0L
      | (Sil.Types.I64 | Sil.Types.Ptr _), Sil.Prog.Word w ->
        Hashtbl.replace tbl g.gname w
      | _ -> ())
    prog.globals;
  List.iter
    (fun (f : Sil.Func.t) ->
      List.iter
        (fun ((_ : Sil.Loc.t), ins) ->
          match (ins : Sil.Instr.t) with
          | Store (Lglobal g, _) -> Hashtbl.remove tbl g
          | Assign (_, Addr_of (Lglobal g)) -> Hashtbl.remove tbl g
          | _ -> ())
        (Sil.Func.instrs f))
    (Sil.Prog.functions prog);
  tbl

let addr_taken_vars (f : Sil.Func.t) : Iset.t =
  List.fold_left
    (fun acc ((_ : Sil.Loc.t), ins) ->
      match (ins : Sil.Instr.t) with
      | Assign (_, Addr_of (Lvar v)) -> Iset.add v.vid acc
      | _ -> acc)
    Iset.empty (Sil.Func.instrs f)

let eval_op (fx : fctx) (env : L.t) (op : Sil.Operand.t) : value =
  match op with
  | Const c -> Known c
  | Null -> Known 0L
  | Var v ->
    if Iset.mem v.vid fx.fx_addr_taken then Top
    else Option.value ~default:Top (Vmap.find_opt v.vid env)
  | Global g -> (
    match Hashtbl.find_opt fx.fx_frozen g with Some c -> Known c | None -> Top)
  | Cstr _ | Func_addr _ -> Top

let set (fx : fctx) env (v : Sil.Operand.var) value =
  if Iset.mem v.vid fx.fx_addr_taken then env
  else
    match value with
    | Top -> Vmap.remove v.vid env
    | Known _ -> Vmap.add v.vid value env

let transfer (fx : fctx) (_ : Sil.Loc.t) (ins : Sil.Instr.t) env =
  match ins with
  | Assign (v, Use op) -> set fx env v (eval_op fx env op)
  | Assign (v, Binop (op, a, b)) -> (
    match (eval_op fx env a, eval_op fx env b) with
    | Known x, Known y -> set fx env v (Known (Sil.Instr.eval_binop op x y))
    | _ -> set fx env v Top)
  | Assign (v, Load (Lglobal g)) ->
    set fx env v
      (match Hashtbl.find_opt fx.fx_frozen g with Some c -> Known c | None -> Top)
  | Assign (v, (Load _ | Addr_of _)) -> set fx env v Top
  | Store (Lvar v, op) -> set fx env v (eval_op fx env op)
  | Store ((Lglobal _ | Lfield _ | Lindex _ | Lderef _), _) -> env
  | Call { dst = Some v; _ } -> set fx env v Top
  | Call { dst = None; _ } -> env

(* Propagate along the taken edge only when the condition folds. *)
let edges (fx : fctx) (b : Sil.Func.block) env =
  match b.term with
  | Sil.Instr.Branch (op, l1, l2) -> (
    match eval_op fx env op with
    | Known c -> [ ((if Int64.equal c 0L then l2 else l1), env) ]
    | Top -> if String.equal l1 l2 then [ (l1, env) ] else [ (l1, env); (l2, env) ])
  | Sil.Instr.Jump l -> [ (l, env) ]
  | Sil.Instr.Ret _ | Sil.Instr.Halt -> []

let is_app (f : Sil.Func.t) =
  match f.kind with
  | Sil.Func.App_code -> true
  | Sil.Func.Syscall_stub _ | Sil.Func.Intrinsic _ -> false

let analyze (prog : Sil.Prog.t) : t =
  let frozen = frozen_globals prog in
  let t =
    {
      cp_prog = prog;
      cp_frozen = frozen;
      cp_ctx = Hashtbl.create 16;
      cp_results = Hashtbl.create 16;
      cp_summaries = Hashtbl.create 16;
    }
  in
  let fctx_of (f : Sil.Func.t) =
    match Hashtbl.find_opt t.cp_ctx f.fname with
    | Some fx -> fx
    | None ->
      let fx = { fx_addr_taken = addr_taken_vars f; fx_frozen = frozen } in
      Hashtbl.replace t.cp_ctx f.fname fx;
      fx
  in
  let work = Queue.create () in
  let top_summary (f : Sil.Func.t) = Array.make (List.length f.params) Top in
  let seed fname =
    match Hashtbl.find_opt prog.funcs fname with
    | Some f when is_app f ->
      Hashtbl.replace t.cp_summaries fname (top_summary f);
      Queue.push fname work
    | Some _ | None -> ()
  in
  seed prog.entry;
  Sil.Callgraph.Sset.iter seed (Sil.Callgraph.address_taken_of prog);
  let join_summary callee (vec : value array) : bool =
    match Hashtbl.find_opt t.cp_summaries callee with
    | None ->
      Hashtbl.replace t.cp_summaries callee vec;
      true
    | Some old ->
      let changed = ref false in
      Array.iteri
        (fun i v ->
          if i < Array.length old then begin
            let j = value_join old.(i) v in
            if not (value_equal j old.(i)) then begin
              old.(i) <- j;
              changed := true
            end
          end)
        vec;
      !changed
  in
  while not (Queue.is_empty work) do
    let fname = Queue.pop work in
    match Hashtbl.find_opt prog.funcs fname with
    | None -> ()
    | Some f when not (is_app f) -> ()
    | Some f ->
      let fx = fctx_of f in
      let summary = Hashtbl.find t.cp_summaries fname in
      let init =
        List.fold_left
          (fun env (i, (v : Sil.Operand.var)) ->
            match summary.(i) with
            | Known _ as k -> set fx env v k
            | Top -> env)
          Vmap.empty
          (List.mapi (fun i (v, _) -> (i, v)) f.params)
      in
      let res =
        Df.run ~dir:Dataflow.Forward ~init ~transfer:(transfer fx)
          ~edges:(edges fx) f
      in
      Hashtbl.replace t.cp_results fname res;
      (* Push the argument vectors of every reached direct callsite into
         the callee's summary; a changed summary re-analyses the
         callee. *)
      List.iter
        (fun (b : Sil.Func.block) ->
          match Hashtbl.find_opt res.df_in b.label with
          | None -> () (* block unreachable under the analysis *)
          | Some s0 ->
            let s = ref s0 in
            Array.iteri
              (fun idx ins ->
                (match (ins : Sil.Instr.t) with
                | Call { target = Direct callee; args; _ } -> (
                  match Hashtbl.find_opt prog.funcs callee with
                  | Some g when is_app g ->
                    let n = List.length g.Sil.Func.params in
                    let vec = Array.make n Top in
                    List.iteri
                      (fun i a -> if i < n then vec.(i) <- eval_op fx !s a)
                      args;
                    if join_summary callee vec then Queue.push callee work
                  | Some _ | None -> ())
                | Assign _ | Store _ | Call { target = Indirect _; _ } -> ());
                s := transfer fx (Sil.Loc.make f.fname b.label idx) ins !s)
              b.instrs)
        f.blocks
  done;
  t

(** The abstract value of [op] at the program point just before the
    instruction at [loc]; [Top] when the function or block was never
    reached by the analysis. *)
let value_of_operand (t : t) (loc : Sil.Loc.t) (op : Sil.Operand.t) : value =
  match (Hashtbl.find_opt t.cp_results loc.func, Hashtbl.find_opt t.cp_ctx loc.func)
  with
  | Some res, Some fx -> (
    match Df.before res loc with None -> Top | Some env -> eval_op fx env op)
  | _ -> Top

let frozen_global (t : t) g = Hashtbl.find_opt t.cp_frozen g

(** Was the function reached (analysed) at all? *)
let reached (t : t) fname = Hashtbl.mem t.cp_results fname

(** Was the program point reached along any analysed path?  [false]
    both for unanalysed functions and for blocks every incoming edge of
    which was folded away by a constant condition. *)
let site_reached (t : t) (loc : Sil.Loc.t) : bool =
  match Hashtbl.find_opt t.cp_results loc.func with
  | None -> false
  | Some res -> Df.before res loc <> None

(** Per-function parameter summary, when the function was reached. *)
let summary (t : t) fname = Hashtbl.find_opt t.cp_summaries fname
