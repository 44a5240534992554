(** Whole-program call structure: direct call graph, indirect callsites
    and address-taken functions — the input to the call-type and
    control-flow analyses. *)

module Smap : Map.S with type key = string
module Sset : Set.S with type elt = string

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

(** One pass over the program in layout order (functions by name,
    blocks and instructions in order).  [callsites] and
    [indirect_callsites] are in layout order; each callee's
    [direct_callers] list is in reverse layout order. *)
val build : Prog.t -> t

(** [(build p).address_taken] without the rest of the graph: every
    function named by a [Func_addr] operand of an instruction or a
    terminator ([ret &f], a branch on [&f]), or by an [Fptr] global
    initialiser. *)
val address_taken_of : Prog.t -> Sset.t

(** Direct callsites that call the named function, in reverse layout
    order. *)
val direct_callers_of : t -> string -> Loc.t list

val is_address_taken : t -> string -> bool

(** Statistics backing Table 5 rows 1-3. *)
type stats = {
  total_callsites : int;
  direct_callsites : int;
  indirect_count : int;
}

val stats : t -> stats
