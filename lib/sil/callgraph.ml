(* Whole-program call structure: the direct call graph, indirect
   callsites, and address-taken functions.  This is the input to both the
   call-type analysis (address-taken syscalls are indirectly-callable)
   and the control-flow analysis (callee -> caller-site relations). *)

module Smap = Map.Make (String)
module Sset = Set.Make (String)

type callsite = {
  cs_loc : Loc.t;                (** where the call instruction lives *)
  cs_target : Instr.call_target;
  cs_args : Operand.t list;
}

type t = {
  prog : Prog.t;
  callsites : callsite list;                  (** every call in the program *)
  direct_callers : Loc.t list Smap.t;         (** callee name -> callsites *)
  indirect_callsites : callsite list;
  address_taken : Sset.t;                     (** functions whose address escapes *)
}

(* Address-taken: a [Func_addr] operand anywhere (instruction operands,
   including call arguments and stores, and terminator operands: a
   function may escape through [ret &f] or a branch on [&f]) and
   function-pointer global initialisers. *)
let add_operand acc (op : Operand.t) =
  match op with
  | Func_addr f -> Sset.add f acc
  | Const _ | Cstr _ | Var _ | Global _ | Null -> acc

let add_block acc (b : Func.block) =
  let acc =
    Array.fold_left
      (fun acc ins -> List.fold_left add_operand acc (Instr.operands ins))
      acc b.instrs
  in
  match b.term with
  | Branch (op, _, _) | Ret (Some op) -> add_operand acc op
  | Jump _ | Ret None | Halt -> acc

let taken_globals (prog : Prog.t) =
  List.fold_left
    (fun acc (g : Prog.global) ->
      match g.ginit with
      | Fptr f -> Sset.add f acc
      | Zero | Word _ | Words _ | Str _ -> acc)
    Sset.empty prog.globals

let address_taken_of (prog : Prog.t) : Sset.t =
  Hashtbl.fold
    (fun _ (f : Func.t) acc -> List.fold_left add_block acc f.blocks)
    prog.funcs (taken_globals prog)

let build (prog : Prog.t) : t =
  let callsites = ref [] and indirect = ref [] in
  let callers : (string, Loc.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let taken = ref (taken_globals prog) in
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (b : Func.block) ->
          Array.iteri
            (fun i (ins : Instr.t) ->
              match ins with
              | Call { target; args; _ } -> (
                let cs = { cs_loc = Loc.make f.fname b.label i; cs_target = target; cs_args = args } in
                callsites := cs :: !callsites;
                match target with
                | Direct callee -> (
                  match Hashtbl.find_opt callers callee with
                  | Some locs -> locs := cs.cs_loc :: !locs
                  | None -> Hashtbl.add callers callee (ref [ cs.cs_loc ]))
                | Indirect _ -> indirect := cs :: !indirect)
              | Assign _ | Store _ -> ())
            b.instrs;
          taken := add_block !taken b)
        f.blocks)
    (Prog.functions prog);
  let direct_callers =
    Hashtbl.fold (fun callee locs acc -> Smap.add callee !locs acc) callers Smap.empty
  in
  { prog; callsites = List.rev !callsites; direct_callers;
    indirect_callsites = List.rev !indirect; address_taken = !taken }

let direct_callers_of (cg : t) fname =
  Option.value ~default:[] (Smap.find_opt fname cg.direct_callers)

let is_address_taken (cg : t) fname = Sset.mem fname cg.address_taken

(** Statistics backing Table 5 rows 1-3. *)
type stats = {
  total_callsites : int;
  direct_callsites : int;
  indirect_count : int;
}

let stats (cg : t) =
  let total_callsites = List.length cg.callsites in
  let indirect_count = List.length cg.indirect_callsites in
  { total_callsites; direct_callsites = total_callsites - indirect_count; indirect_count }
