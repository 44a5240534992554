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

(** The argument registers of a call: an unboxed vector of words.
    The machine keeps one per call depth (its {e argument file}) and
    evaluates each call's arguments into the calling frame's file,
    where the call's hooks read them.  A file is overwritten by the
    next call made at its depth, so a hook reads it during the call,
    and whatever keeps arguments past the call copies them
    ({!Args.copy}, {!Args.to_array}). *)
module Args : sig
  type t

  val length : t -> int

  (** Argument [i], or 0 past the last one passed (an unset register).
      Inlined in a release build, so the word reaches the caller's
      arithmetic unboxed. *)
  val get : t -> int -> int64

  (** [get] as an [int], which no profile boxes. *)
  val get_int : t -> int -> int

  (** Overwrite argument [i] (a tracer editing the register file).
      @raise Invalid_argument past the last argument. *)
  val set : t -> int -> int64 -> unit

  val of_array : int64 array -> t
  val to_array : t -> int64 array
  val copy : t -> t
end

(** A live stack frame.  Its cursor is ([fblock], [findex]): a block of
    the layout's code image and an instruction index, where the block's
    instruction count denotes its terminator.  The function it runs is
    that block's owner ({!frame_fidx}); a corrupted return token that
    pivots the frame moves its cursor into another function (ROP
    semantics).

    Frames are reused by call depth: the record at depth [d] describes
    whichever call runs at that depth now, so a frame read after its
    call returned describes the next call made at its depth.  Addresses
    are [int]s, which a call writes without allocating. *)
type frame = private {
  mutable fblock : int;
  mutable findex : int;
  mutable frame_base : int;
  mutable ret_slot : int;  (** address of the return-address word; 0 for entry *)
  mutable fdst : int;  (** offset of the caller's slot receiving the return value, or -1 *)
  mutable callsite : int;
      (** code address of the call this frame has in flight, 0 before
          its first call *)
  args : Args.t;  (** that call's arguments: this depth's argument file *)
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
  layout : Layout.t;  (** [prog]'s code image, which machines may share *)
  mem : Memory.t;
  config : config;
  stats : stats;
  shadow_stack : Cet.Shadow_stack.t;
  rodata : (string, int64) Hashtbl.t;  (** this machine's interned strings *)
  mutable rodata_next : int64;         (** where the next one goes *)
  literal_addrs : int array;
      (** literal id -> this machine's rodata address for it, 0 until
          the machine first evaluates a literal of that text *)
  mutable sp : int;
  mutable brk : int64;
  mutable stack : frame array;
      (** frame records by depth, outermost first; read through
          {!frames} *)
  mutable depth : int;  (** live frames *)
  mutable trap_rip : int;  (** code address of the most recent call *)
  mutable on_syscall : (t -> sysno:int -> args:Args.t -> int64) option;
  mutable on_intrinsic : (t -> name:string -> args:Args.t -> int64) option;
  mutable on_indirect_call :
    (t -> callsite:Sil.Loc.t -> target:int64 -> resolved:string option -> unit)
    option;
  mutable on_instr : (t -> Sil.Loc.t -> unit) option;
}

(** Add cycles to the machine's clock. *)
val charge : t -> int -> unit

(** Build a machine for a program: initialises globals and rodata.
    [layout] is the program's code image, built once and shared by any
    number of machines; without it the machine builds its own.
    @raise Invalid_argument if [layout] was built from another
    program. *)
val create : ?config:config -> ?layout:Layout.t -> Sil.Prog.t -> t

(** Intern a string in this machine's rodata (idempotent per content):
    its address, given out in first-interning order. *)
val intern_string : t -> string -> int64

exception Program_exit of int64

(** Bump-allocate heap words (mmap/malloc substrate). *)
val alloc_heap : t -> int -> int64

(** Run from the entry point until exit or fault. *)
val run : t -> outcome

(** Live frames, innermost first. *)
val frames : t -> frame list

(** The code-image index of the function the frame runs: its cursor
    block's owner. *)
val frame_fidx : t -> frame -> int

(** The arguments of the innermost frame's call in flight: at a system
    call, its argument registers.  The live file, valid during the
    call. *)
val call_args : t -> Args.t

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
