(* Well-formedness checking for programs.  Run by workload constructors
   and tests so that malformed IR fails fast rather than misbehaving in
   the interpreter. *)

type error = { loc : string; message : string }

let error loc fmt = Printf.ksprintf (fun message -> { loc; message }) fmt

let pp_error fmt (e : error) = Format.fprintf fmt "%s: %s" e.loc e.message

(* An instruction's location, or a terminator's with index -1 (reported
   as [func:block]); formatted only when an error is recorded. *)
let render (loc : Loc.t) =
  if loc.index < 0 then loc.func ^ ":" ^ loc.block else Loc.to_string loc

let check_func (prog : Prog.t) ~(global_known : string -> bool) (f : Func.t) : error list =
  let errs = ref [] in
  let add loc fmt =
    Printf.ksprintf (fun m -> errs := { loc = render loc; message = m } :: !errs) fmt
  in
  let labels =
    List.fold_left (fun acc (b : Func.block) -> b.label :: acc) [] f.blocks
  in
  let distinct = List.sort_uniq String.compare labels in
  if List.length distinct <> List.length labels then
    errs := { loc = f.fname; message = "duplicate block labels" } :: !errs;
  (* Each variable (by vid and name) with its first declared type, as
     [Func.var_type] reads it. *)
  let vars : (Operand.var, Types.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (v, ty) -> if not (Hashtbl.mem vars v) then Hashtbl.add vars v ty)
    (Func.all_vars f);
  let var_known v = Hashtbl.mem vars v in
  (* Aggregates (structs, arrays) live in memory and are manipulated
     through pointers obtained with [Addr_of]; a bare aggregate-typed
     variable in a scalar position would read a single word of it. *)
  let check_scalar loc v =
    match Hashtbl.find_opt vars v with
    | Some (Types.Struct _ | Types.Array _) ->
      add loc "aggregate variable %s#%d used as a scalar operand" v.vname v.vid
    | Some (Types.Void | Types.I64 | Types.Ptr _ | Types.Func _) | None -> ()
  in
  let check_operand loc op =
    match (op : Operand.t) with
    | Var v ->
      if not (var_known v) then add loc "unknown variable %s#%d" v.vname v.vid
      else check_scalar loc v
    | Global g ->
      if not (global_known g) then add loc "unknown global %s" g
    | Func_addr fn ->
      if not (Prog.mem_func prog fn) then add loc "address of unknown function %s" fn
    | Const _ | Cstr _ | Null -> ()
  in
  let check_place loc p =
    List.iter (check_operand loc) (Place.operands p);
    (match (p : Place.t) with
    | Lvar v -> if not (var_known v) then add loc "unknown variable %s#%d" v.vname v.vid
    | Lglobal g ->
      if not (global_known g) then add loc "unknown global %s" g
    | Lfield (_, sname, field) -> (
      match Hashtbl.find_opt prog.structs sname with
      | None -> add loc "unknown struct %s" sname
      | Some def ->
        if not (List.mem_assoc field def.Types.fields) then
          add loc "struct %s has no field %s" sname field)
    | Lindex _ | Lderef _ -> ())
  in
  List.iter
    (fun (b : Func.block) ->
      Array.iteri
        (fun i (ins : Instr.t) ->
          let loc = Loc.make f.fname b.label i in
          List.iter (check_operand loc) (Instr.operands ins);
          match ins with
          | Assign (v, rv) ->
            if not (var_known v) then add loc "assign to unknown variable %s#%d" v.vname v.vid
            else check_scalar loc v;
            (match rv with
            | Load p | Addr_of p -> check_place loc p
            | Use _ | Binop _ -> ())
          | Store (p, _) ->
            (match (p : Place.t) with
            | Lvar v when var_known v -> check_scalar loc v
            | _ -> ());
            check_place loc p
          | Call { dst = Some v; _ } when not (var_known v) ->
            add loc "call result assigned to unknown variable %s#%d" v.vname v.vid
          | Call { target = Direct callee; args; dst } -> (
            (match dst with Some v -> check_scalar loc v | None -> ());
            match Hashtbl.find_opt prog.funcs callee with
            | None -> add loc "call to unknown function %s" callee
            | Some g ->
              let arity = List.length g.Func.params in
              let n = List.length args in
              (* Syscall stubs follow the 6-register kernel ABI: fewer
                 arguments are allowed (unused registers read as zero). *)
              let ok = if Func.is_syscall_stub g then n <= arity else n = arity in
              if not ok then
                add loc "call to %s: %d args, expected %d" callee n arity)
          | Call { target = Indirect _; dst; _ } ->
            (match dst with Some v -> check_scalar loc v | None -> ()))
        b.instrs)
    f.blocks;
  List.iter
    (fun (b : Func.block) ->
      let loc = Loc.make f.fname b.label (-1) in
      let check_label l =
        if not (List.mem l labels) then add loc "jump to unknown label %s" l
      in
      match b.term with
      | Jump l -> check_label l
      | Branch (op, l1, l2) ->
        check_operand loc op;
        check_label l1;
        check_label l2
      | Ret (Some op) -> check_operand loc op
      | Ret None | Halt -> ())
    f.blocks;
  List.rev !errs

let check (prog : Prog.t) : error list =
  let entry_errs =
    if Prog.mem_func prog prog.entry then []
    else [ error "program" "entry function %s not defined" prog.entry ]
  in
  (* The function table tolerates shadowed bindings (Hashtbl.add); a
     program carrying two functions of the same name is malformed — the
     layout and the monitor's metadata both key on the name. *)
  let dup_errs =
    let names = Hashtbl.fold (fun name _ acc -> name :: acc) prog.funcs [] in
    let sorted = List.sort String.compare names in
    let rec dups acc = function
      | a :: (b :: _ as rest) ->
        dups (if String.equal a b && not (List.mem a acc) then a :: acc else acc) rest
      | [ _ ] | [] -> acc
    in
    List.map (fun n -> error "program" "function %s defined more than once" n)
      (List.rev (dups [] sorted))
  in
  let globals = Hashtbl.create 16 in
  List.iter (fun (g : Prog.global) -> Hashtbl.replace globals g.gname ()) prog.globals;
  let global_known g = Hashtbl.mem globals g in
  entry_errs @ dup_errs
  @ List.concat_map (check_func prog ~global_known) (Prog.functions prog)

(** Raise [Invalid_argument] with a readable report if the program is
    malformed. *)
let check_exn (prog : Prog.t) =
  match check prog with
  | [] -> ()
  | errs ->
    let buf = Buffer.create 256 in
    List.iter
      (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" pp_error e))
      errs;
    invalid_arg ("Validate.check_exn:\n" ^ Buffer.contents buf)
