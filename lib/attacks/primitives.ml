(* Attacker primitives: the paper's threat model (§4) — arbitrary memory
   read/write through a memory-corruption vulnerability, with DEP and a
   hidden shadow region.

   The guard below enforces the threat-model boundary: writes to code
   and rodata fault (DEP / W^X) and the shadow region is unreachable
   (sparse-address-space information hiding, as in CPI/VIP); everything
   else — stack, heap, globals — is fair game. *)

exception Dep_violation of int64

let writable addr =
  let open Machine.Layout in
  not
    ((addr >= code_base && addr < data_base)  (* code + rodata *)
    || (addr >= shadow_base && addr < Int64.add shadow_base 0x1000_0000L))

(** Arbitrary write, respecting DEP and shadow-region hiding. *)
let poke (m : Machine.t) addr v =
  if not (writable addr) then raise (Dep_violation addr);
  Machine.poke m addr v

let peek = Machine.peek

(** Write a NUL-terminated string (one character per word) into
    attacker-reachable memory, e.g. a scratch buffer. *)
let plant_string (m : Machine.t) addr s =
  String.iteri
    (fun i c -> poke m (Machine.Memory.addr_add addr i) (Int64.of_int (Char.code c)))
    s;
  poke m (Machine.Memory.addr_add addr (String.length s)) 0L

(** Overwrite the return address of the innermost frame with [target]
    (a code address): the classic stack-smash control transfer. *)
let overwrite_return (m : Machine.t) target =
  match Machine.frames m with
  | frame :: _ when frame.ret_slot <> 0 -> poke m (Int64.of_int frame.ret_slot) target
  | _ -> invalid_arg "Primitives.overwrite_return: no overwritable frame"

(** Address of the first instruction of a function's entry block — the
    usual ROP "return into function body" target. *)
let gadget_entry (m : Machine.t) func =
  Machine.instr_address m (Sil.Loc.make func "entry" 0)

(** Address of a named global. *)
let global = Machine.global_address

(** Code address of a function (what a leaked function pointer holds). *)
let func_addr = Machine.function_address

(** Address of a struct field within a global. *)
let global_field (m : Machine.t) ~global:g ~struct_:s ~field =
  Machine.Memory.addr_add (Machine.global_address m g)
    (Sil.Types.field_offset m.prog.structs s field)
