(* Interprocedural may-taint analysis: which values can an attacker who
   controls the program's external inputs actually influence?

   Sources are the user-controlled event inputs of the workload models:
   the buffers filled by [read] and [recvfrom] (the pointee contents
   become attacker data the moment the call returns).  Syscall RESULTS
   themselves — file descriptors, byte counts — are kernel-derived and
   stay untainted: the attacker chooses what arrives in the buffer, not
   what number the kernel hands back.

   Taint flows forward per function as the fourth {!Dataflow.Make}
   instance (lattice: the set of tainted variable ids, joined by
   union), and across functions through three pieces of program-wide
   state iterated to an outer fixpoint:

   - a tainted-object set (stack slots and globals whose memory may
     hold attacker data — loads from them taint the destination,
     tainted stores into fresh objects extend the set);
   - per-parameter may-taint summaries, joined over every direct
     callsite (address-taken functions are callable with unknown
     arguments, so their parameters are pinned tainted);
   - per-function return summaries.

   A store through a pointer the def-scan cannot resolve taints
   everything (the [taint_all] flag): over-approximation is always
   sound here, because the monitor's consumer only uses "untainted" to
   pick a cheaper verification path with identical denial semantics —
   imprecision costs probes, never security. *)

module Iset = Set.Make (Int)

type obj = O_local of string * int  (** fname, vid *) | O_global of string

module Omap = Map.Make (struct
  type t = obj

  let compare = compare
end)

module L = struct
  type t = Iset.t

  let equal = Iset.equal
  let join = Iset.union
end

module Df = Dataflow.Make (L)

type t = {
  tn_prog : Sil.Prog.t;
  tn_taken : Sil.Callgraph.Sset.t;  (** address-taken functions *)
  tn_callers : (string, (Sil.Func.t * Sil.Operand.t list) list) Hashtbl.t;
      (** callee -> (caller function, argument list) per direct callsite
          (pointer-parameter resolution chases these) *)
  tn_objs : (obj, unit) Hashtbl.t;
  tn_params : (string, bool array) Hashtbl.t;
  tn_rets : (string, bool) Hashtbl.t;
  tn_results : (string, Df.result) Hashtbl.t;
  mutable tn_all : bool;  (** an unresolvable tainted store: everything may be *)
}

(** Syscall stubs whose pointee buffer (argument position 1) receives
    external input. *)
let source_stub (prog : Sil.Prog.t) fname : bool =
  match Hashtbl.find_opt prog.funcs fname with
  | Some f -> (
    match Sil.Func.syscall_number f with
    | Some nr ->
      let n = Kernel.Syscalls.name nr in
      String.equal n "read" || String.equal n "recvfrom"
    | None -> false)
  | None -> false

let is_app (f : Sil.Func.t) =
  match f.kind with
  | Sil.Func.App_code -> true
  | Sil.Func.Syscall_stub _ | Sil.Func.Intrinsic _ -> false

let is_app_name (prog : Sil.Prog.t) fname =
  match Hashtbl.find_opt prog.funcs fname with
  | Some f -> is_app f
  | None -> false

let is_stub_name (prog : Sil.Prog.t) fname =
  match Hashtbl.find_opt prog.funcs fname with
  | Some f -> Sil.Func.is_syscall_stub f
  | None -> false

(* ------------------------------------------------------------------ *)
(* Resolving a place (or a pointer operand) to the abstract objects it
   can address.  [None] = unresolvable (a pointer that is not a plain
   address-of chain) — callers must go conservative.                    *)

let rec objects_of_pointer (t : t) (f : Sil.Func.t) (op : Sil.Operand.t)
    ~(visited : (string * int) list) : obj list option =
  match op with
  | Sil.Operand.Global g ->
    (* A global holding a pointer: where it aims is data, not syntax. *)
    ignore g;
    None
  | Sil.Operand.Var v ->
    if List.mem (f.fname, v.vid) visited then
      (* A cycle through parameter chasing: this path contributes no new
         objects beyond what the outer frames already collect. *)
      Some []
    else begin
      let visited = (f.fname, v.vid) :: visited in
      let objs = ref [] in
      let unresolved = ref false in
      List.iter
        (fun ((_ : Sil.Loc.t), ins) ->
          match (ins : Sil.Instr.t) with
          | Assign (d, rv) when d.vid = v.vid -> (
            match rv with
            | Sil.Instr.Addr_of (Sil.Place.Lvar u) ->
              objs := O_local (f.fname, u.vid) :: !objs
            | Sil.Instr.Addr_of (Sil.Place.Lglobal g) -> objs := O_global g :: !objs
            | Sil.Instr.Addr_of (Sil.Place.Lfield _ | Sil.Place.Lindex _
                                | Sil.Place.Lderef _)
            | Sil.Instr.Use _ | Sil.Instr.Load _ | Sil.Instr.Binop _ ->
              unresolved := true)
          | Call { dst = Some d; _ } when d.vid = v.vid -> unresolved := true
          | Assign _ | Call _ | Store _ -> ())
        (Sil.Func.instrs f);
      (* A pointer parameter aims wherever any caller's matching
         argument aims: join over every direct callsite.  Address-taken
         functions are callable with unknown pointers, so their
         parameters stay unresolvable. *)
      let param_index =
        List.find_index
          (fun ((p, _) : Sil.Operand.var * _) -> p.vid = v.vid)
          f.params
      in
      (match param_index with
      | Some i when not !unresolved ->
        if Sil.Callgraph.Sset.mem f.fname t.tn_taken then
          unresolved := true
        else
          List.iter
            (fun ((g, args) : Sil.Func.t * Sil.Operand.t list) ->
              match List.nth_opt args i with
              | None -> unresolved := true
              | Some a -> (
                match objects_of_pointer t g a ~visited with
                | None -> unresolved := true
                | Some os -> objs := os @ !objs))
            (Option.value ~default:[] (Hashtbl.find_opt t.tn_callers f.fname))
      | _ -> ());
      if !unresolved then None
      else if !objs = [] && param_index = None then None
      else Some !objs
    end
  | Sil.Operand.Const _ | Sil.Operand.Null | Sil.Operand.Cstr _
  | Sil.Operand.Func_addr _ ->
    (* NULL / rodata / code: no writable object behind it. *)
    Some []

let objects_of_pointer (t : t) (f : Sil.Func.t) (op : Sil.Operand.t) :
    obj list option =
  objects_of_pointer t f op ~visited:[]

let root_objects (t : t) (f : Sil.Func.t) (place : Sil.Place.t) : obj list option =
  match place with
  | Sil.Place.Lvar v -> Some [ O_local (f.fname, v.vid) ]
  | Sil.Place.Lglobal g -> Some [ O_global g ]
  | Sil.Place.Lfield (base, _, _)
  | Sil.Place.Lindex (base, _, _)
  | Sil.Place.Lderef base ->
    objects_of_pointer t f base

(* ------------------------------------------------------------------ *)
(* The per-function forward analysis                                   *)

let obj_tainted (t : t) o = t.tn_all || Hashtbl.mem t.tn_objs o

let op_tainted (t : t) (env : Iset.t) (op : Sil.Operand.t) : bool =
  match op with
  | Sil.Operand.Var v -> Iset.mem v.vid env
  | Sil.Operand.Global g -> obj_tainted t (O_global g)
  | Sil.Operand.Const _ | Sil.Operand.Null | Sil.Operand.Cstr _
  | Sil.Operand.Func_addr _ ->
    false

let place_load_tainted (t : t) (f : Sil.Func.t) (place : Sil.Place.t) : bool =
  match root_objects t f place with
  | Some objs -> List.exists (obj_tainted t) objs || t.tn_all
  | None -> true (* unresolvable pointer: the load may read anything *)

let set_var env (v : Sil.Operand.var) tainted =
  if tainted then Iset.add v.vid env else Iset.remove v.vid env

let transfer (t : t) (f : Sil.Func.t) (_ : Sil.Loc.t) (ins : Sil.Instr.t) env =
  match ins with
  | Sil.Instr.Assign (v, Use op) -> set_var env v (op_tainted t env op)
  | Sil.Instr.Assign (v, Binop (_, a, b)) ->
    set_var env v (op_tainted t env a || op_tainted t env b)
  | Sil.Instr.Assign (v, Load place) -> set_var env v (place_load_tainted t f place)
  | Sil.Instr.Assign (v, Addr_of _) ->
    (* An address is attacker-KNOWN, not attacker-CONTROLLED. *)
    set_var env v false
  | Sil.Instr.Store _ -> env (* memory effects handled program-wide *)
  | Sil.Instr.Call { dst; target; _ } -> (
    match dst with
    | None -> env
    | Some v -> (
      match target with
      | Sil.Instr.Direct g ->
        if is_stub_name t.tn_prog g then
          (* Syscall results (fds, byte counts) are kernel-derived. *)
          set_var env v false
        else if is_app_name t.tn_prog g then
          set_var env v
            (Option.value ~default:false (Hashtbl.find_opt t.tn_rets g))
        else set_var env v false
      | Sil.Instr.Indirect _ -> set_var env v true))

(* ------------------------------------------------------------------ *)
(* The outer fixpoint                                                  *)

let analyze (prog : Sil.Prog.t) : t =
  let taken = Sil.Callgraph.address_taken_of prog in
  let t =
    {
      tn_prog = prog;
      tn_taken = taken;
      tn_callers = Hashtbl.create 16;
      tn_objs = Hashtbl.create 16;
      tn_params = Hashtbl.create 16;
      tn_rets = Hashtbl.create 16;
      tn_results = Hashtbl.create 16;
      tn_all = false;
    }
  in
  let app_funcs = List.filter is_app (Sil.Prog.functions prog) in
  (* Direct-call argument lists per callee, for pointer-parameter
     resolution. *)
  List.iter
    (fun (f : Sil.Func.t) ->
      List.iter
        (fun ((_ : Sil.Loc.t), ins) ->
          match (ins : Sil.Instr.t) with
          | Call { target = Direct g; args; _ } ->
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt t.tn_callers g)
            in
            Hashtbl.replace t.tn_callers g ((f, args) :: existing)
          | _ -> ())
        (Sil.Func.instrs f))
    app_funcs;
  (* Address-taken functions are callable with unknown (attacker
     influenceable) arguments: pin their parameters tainted. *)
  List.iter
    (fun (f : Sil.Func.t) ->
      let n = List.length f.params in
      let pinned = Sil.Callgraph.Sset.mem f.fname taken in
      Hashtbl.replace t.tn_params f.fname (Array.make n pinned))
    app_funcs;
  let changed = ref true in
  let taint_obj o =
    if not (Hashtbl.mem t.tn_objs o) then begin
      Hashtbl.replace t.tn_objs o ();
      changed := true
    end
  in
  let taint_all () =
    if not t.tn_all then begin
      t.tn_all <- true;
      changed := true
    end
  in
  (* Sources: every call to read/recvfrom taints the objects behind the
     buffer argument (position 1), independent of any dataflow state. *)
  List.iter
    (fun (f : Sil.Func.t) ->
      List.iter
        (fun ((_ : Sil.Loc.t), ins) ->
          match (ins : Sil.Instr.t) with
          | Call { target = Direct g; args; _ } when source_stub prog g -> (
            match List.nth_opt args 1 with
            | None -> ()
            | Some buf -> (
              match objects_of_pointer t f buf with
              | Some objs -> List.iter taint_obj objs
              | None -> taint_all ()))
          | _ -> ())
        (Sil.Func.instrs f))
    app_funcs;
  changed := true;
  while !changed do
    changed := false;
    List.iter
      (fun (f : Sil.Func.t) ->
        let params = Hashtbl.find t.tn_params f.fname in
        let init =
          List.fold_left
            (fun env (i, (v : Sil.Operand.var)) ->
              if i < Array.length params && params.(i) then Iset.add v.vid env
              else env)
            Iset.empty
            (List.mapi (fun i (v, _) -> (i, v)) f.params)
        in
        let res =
          Df.run ~dir:Dataflow.Forward ~init ~transfer:(transfer t f) f
        in
        Hashtbl.replace t.tn_results f.fname res;
        (* Post-run walk: memory effects, callee parameter inflow and
           the return summary all need the env at each instruction. *)
        let ret_tainted = ref false in
        List.iter
          (fun (b : Sil.Func.block) ->
            match Hashtbl.find_opt res.df_in b.label with
            | None -> ()
            | Some s0 ->
              let s = ref s0 in
              Array.iteri
                (fun idx ins ->
                  (match (ins : Sil.Instr.t) with
                  | Store (place, op) ->
                    if op_tainted t !s op then (
                      match root_objects t f place with
                      | Some objs -> List.iter taint_obj objs
                      | None -> taint_all ())
                  | Call { target = Direct g; args; _ } when is_app_name prog g
                    -> (
                    match Hashtbl.find_opt t.tn_params g with
                    | None -> ()
                    | Some callee_params ->
                      List.iteri
                        (fun i a ->
                          if
                            i < Array.length callee_params
                            && (not callee_params.(i))
                            && op_tainted t !s a
                          then begin
                            callee_params.(i) <- true;
                            changed := true
                          end)
                        args)
                  | Assign _ | Call _ -> ());
                  s := transfer t f (Sil.Loc.make f.fname b.label idx) ins !s)
                b.instrs;
              (match b.term with
              | Sil.Instr.Ret (Some op) ->
                if op_tainted t !s op then ret_tainted := true
              | Sil.Instr.Ret None | Sil.Instr.Halt | Sil.Instr.Jump _
              | Sil.Instr.Branch _ -> ()))
          f.blocks;
        let old_ret =
          Option.value ~default:false (Hashtbl.find_opt t.tn_rets f.fname)
        in
        if !ret_tainted && not old_ret then begin
          Hashtbl.replace t.tn_rets f.fname true;
          changed := true
        end)
      app_funcs
  done;
  t

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(** May the variable hold attacker-influenced data just before the
    instruction at [loc]?  Unreached points answer via [taint_all]
    only — rank consumers gate dead sites separately. *)
let var_tainted_at (t : t) (loc : Sil.Loc.t) (v : Sil.Operand.var) : bool =
  t.tn_all
  ||
  match Hashtbl.find_opt t.tn_results loc.func with
  | None -> false
  | Some res -> (
    match Df.before res loc with
    | None -> false
    | Some env -> Iset.mem v.vid env)

let global_tainted (t : t) (g : string) : bool = obj_tainted t (O_global g)

let local_tainted (t : t) ~fname ~vid : bool = obj_tainted t (O_local (fname, vid))

(** Did an unresolvable tainted store force the all-tainted fallback? *)
let tainted_everything (t : t) = t.tn_all

(** Tainted-object count (reporting). *)
let tainted_objects (t : t) = Hashtbl.length t.tn_objs
