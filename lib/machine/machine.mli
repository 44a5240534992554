(** The simulated machine: interprets a SIL program over concrete,
    corruptible memory.

    Faithfulness properties the reproduction depends on:
    - all locals live in stack memory at concrete addresses (arbitrary
      attacker writes can corrupt any variable);
    - return addresses are words in stack memory, read back on return —
      overwriting one performs a real control transfer (ROP);
    - function pointers are code addresses; indirect calls resolve
      whatever the loaded word holds;
    - CET (when enabled) shadows return addresses outside the
      corruptible memory and faults on mismatch;
    - invoking a syscall stub enters the kernel handler installed by the
      embedder — seccomp, tracing and the monitor live behind it. *)

module Memory = Memory
module Layout = Layout
module Cost = Cost

(** Why a run was killed. *)
type fault =
  | Cet_violation of { expected : int64; actual : int64 }
  | Cfi_violation of { callsite : Sil.Loc.t; target : int64 }
  | Seccomp_kill of { sysno : int }
  | Monitor_kill of { context : string; detail : string }
  | Bad_indirect_target of { callsite : Sil.Loc.t; target : int64 }
  | Bad_return_target of { target : int64 }
  | Fuel_exhausted

exception Killed of fault

val fault_to_string : fault -> string

type outcome = Exited of int64 | Faulted of fault

(** A live stack frame.  Its cursor is ([fblock], [findex]): a block of
    the layout's code image and an instruction index, where the block's
    instruction count denotes its terminator.  [ffunc] names the
    function that block belongs to; both change when a corrupted return
    token pivots the frame to another function (ROP semantics). *)
type frame = private {
  mutable ffunc : string;
  mutable fblock : int;
  mutable findex : int;
  frame_base : int64;
  ret_slot : int64;  (** address of the return-address word; 0 for entry *)
  fdst : int;  (** offset of the caller's slot receiving the return value, or -1 *)
  mutable in_flight_args : int64 array;
      (** evaluated arguments of the call this frame has in flight *)
  mutable in_flight_callsite : int64;
}

type stats = {
  mutable instrs : int;
  mutable calls : int;
  mutable indirect_calls : int;
  mutable rets : int;
  mutable syscalls : int;
  mutable cycles : int;
}

val stats_create : unit -> stats

type config = { cet : bool; cost : Cost.t; fuel : int }

val default_config : config

type t = {
  prog : Sil.Prog.t;
  layout : Layout.t;
  mem : Memory.t;
  config : config;
  stats : stats;
  shadow_stack : Cet.Shadow_stack.t;
  mutable sp : int64;
  mutable brk : int64;
  mutable frames : frame list;  (** innermost first *)
  mutable abi_regs : int64 array;  (** args of the most recent call *)
  mutable trap_rip : int64;        (** code address of the most recent call *)
  mutable on_syscall : (t -> sysno:int -> args:int64 array -> int64) option;
  mutable on_intrinsic : (t -> name:string -> args:int64 array -> int64) option;
  mutable on_indirect_call :
    (t -> callsite:Sil.Loc.t -> target:int64 -> resolved:string option -> unit)
    option;
  mutable on_instr : (t -> Sil.Loc.t -> unit) option;
}

(** Add cycles to the machine's clock. *)
val charge : t -> int -> unit

(** Build a machine for a program: assigns the layout, initialises
    globals and rodata. *)
val create : ?config:config -> Sil.Prog.t -> t

exception Program_exit of int64

(** Bump-allocate heap words (mmap/malloc substrate). *)
val alloc_heap : t -> int -> int64

(** Run from the entry point until exit or fault. *)
val run : t -> outcome

(** Live frames, innermost first. *)
val frames : t -> frame list

(** The frame's memory-resident return address (reflects corruption);
    [None] for the entry frame. *)
val read_ret_addr : t -> frame -> int64 option

val peek : t -> int64 -> int64
val poke : t -> int64 -> int64 -> unit
val read_string : t -> int64 -> string

val global_address : t -> string -> int64
val function_address : t -> string -> int64
val instr_address : t -> Sil.Loc.t -> int64

(** Address of a live frame's local variable, innermost match first. *)
val local_address : t -> func:string -> var:string -> int64 option
