(* Debloating baseline (§2.2): carve unused functions out of the binary.
   Unreachable functions (never called directly, address never taken)
   are removed; the syscalls only they used disappear with them.  As the
   paper notes, sensitive syscalls used for program/library loading
   survive debloating — here, any syscall with a remaining caller
   survives. *)

module Sset = Set.Make (String)

(** Compute the reachable-function set from the entry point, following
    direct calls and treating every address-taken function as reachable
    (a conservative static debloater). *)
let reachable (prog : Sil.Prog.t) : Sset.t =
  let seen = ref Sset.empty in
  let queue = Queue.create () in
  let push f =
    if (not (Sset.mem f !seen)) && Hashtbl.mem prog.funcs f then begin
      seen := Sset.add f !seen;
      Queue.push f queue
    end
  in
  push prog.entry;
  Sil.Callgraph.Sset.iter push (Sil.Callgraph.address_taken_of prog);
  while not (Queue.is_empty queue) do
    let fname = Queue.pop queue in
    let f = Sil.Prog.find_func prog fname in
    List.iter
      (fun (_, ins) ->
        match (ins : Sil.Instr.t) with
        | Call { target = Direct callee; _ } -> push callee
        | Call { target = Indirect _; _ } | Assign _ | Store _ -> ())
      (Sil.Func.instrs f)
  done;
  !seen

(** The debloated program: unreachable application functions removed. *)
let run (prog : Sil.Prog.t) : Sil.Prog.t * int =
  let keep = reachable prog in
  let funcs = Hashtbl.create (Hashtbl.length prog.funcs) in
  let removed = ref 0 in
  Hashtbl.iter
    (fun name (f : Sil.Func.t) ->
      match f.kind with
      | Sil.Func.App_code ->
        if Sset.mem name keep then Hashtbl.replace funcs name f else incr removed
      | Sil.Func.Syscall_stub _ | Sil.Func.Intrinsic _ -> Hashtbl.replace funcs name f)
    prog.funcs;
  ( { Sil.Prog.structs = prog.structs; globals = prog.globals; funcs; entry = prog.entry },
    !removed )

(** Syscalls still invocable after debloating. *)
let surviving_syscalls (prog : Sil.Prog.t) =
  let debloated, _ = run prog in
  Syscall_filter.allowlist_of_program debloated
