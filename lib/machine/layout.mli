(** Address-space layout, code addressing and the decoded code image.

    Every instruction and block terminator receives a concrete code
    address, giving the machine a real instruction pointer: return
    addresses are plain words, function pointers are code addresses,
    and monitor metadata is keyed by callsite address exactly as the
    paper keys it by binary offset.  {!build} also decodes the program
    once into the dense code image the interpreter runs. *)

type code_point =
  | Instr_at of Sil.Loc.t
  | Term_of of string * string  (** function, block *)

val code_base : int64
val rodata_base : int64
val data_base : int64
val heap_base : int64

(** The $gs-relative BASTION shadow region (hidden from the attacker). *)
val shadow_base : int64

val stack_base : int64

type t

(** Lay out and decode a program.  The result holds the machine's
    rodata interning state, so each machine builds its own. *)
val build : Sil.Prog.t -> t

(** @raise Invalid_argument for points the program does not have. *)
val addr_of_point : t -> code_point -> int64

val addr_of_loc : t -> Sil.Loc.t -> int64
val point_of_addr : t -> int64 -> code_point option

(** @raise Invalid_argument for unknown functions. *)
val func_entry : t -> string -> int64

(** The function a code address belongs to, if any. *)
val func_of_addr : t -> int64 -> string option

(** Resolve an address used as a call target: must be a function entry. *)
val func_of_entry_addr : t -> int64 -> string option

val global_addr : t -> string -> int64
val global_words : t -> string -> int

(** Intern a string literal in rodata (idempotent per content). *)
val intern_string : t -> Memory.t -> string -> int64

(** Word offset of a variable slot from its frame base. *)
val var_offset : t -> string -> int -> int

(** Frame size in words (locals + params). *)
val frame_words : t -> string -> int

(** {2 The code image}

    What the interpreter runs.  Offsets and sizes here are in words.  A
    name that does not resolve decodes to a node carrying the
    [Invalid_argument] message the interpreter raises on reaching it. *)

(** A string literal; [interned] is its rodata address once first
    evaluated (0 before). *)
type literal = { text : string; mutable interned : int64 }

type operand =
  | Imm of int64            (** constants, [Null], function addresses *)
  | Slot of int             (** a local: offset from the frame base *)
  | Word_at of int64        (** a scalar global: the word at this address *)
  | Lit of literal
  | Unresolved of string

type place =
  | Pslot of int
  | Pabs of int64
  | Pfield of operand * int            (** base + offset *)
  | Pindex of operand * operand * int  (** base + index * element size *)
  | Pderef of operand
  | Punresolved of operand list * string
      (** evaluate the operands, then fail with the message *)

type rvalue =
  | Use of operand
  | Load of place
  | Addr_of of place
  | Binop of Sil.Instr.binop * operand * operand

type target =
  | Direct of int  (** function index *)
  | Indirect of operand
  | Unknown_callee of string  (** a direct call to a name the program lacks *)

type call = { dst : place option; target : target; args : operand array }

type instr = Assign of place * rvalue | Store of place * operand | Call of call

type term =
  | Jump of int  (** block index *)
  | Branch of operand * int * int
  | Ret of operand option
  | Halt
  | Missing_block of string
      (** the whole term of a block that stands for a missing label *)

type block = {
  label : string;
  owner : int;               (** function index *)
  base : int64;              (** address of instruction 0; the terminator
                                 sits at [base + 8 * |instrs|] *)
  first_point : int;         (** code point number of [base]; -1 for a
                                 missing-label block *)
  instrs : instr array;
  locs : Sil.Loc.t array;    (** each instruction's location *)
  term : term;
}

type func = {
  name : string;
  kind : Sil.Func.kind;
  entry : int64;
  entry_block : int;         (** -1 when the function has no blocks *)
  frame_words : int;
  slots : int array;         (** vid -> offset, -1 where none *)
  params : int array;        (** offsets of the parameters, in order *)
}

type image = {
  funcs : func array;        (** sorted by name: the layout order *)
  blocks : block array;      (** layout order, then missing-label blocks *)
  point_block : int array;   (** code point number -> block index *)
}

val image : t -> image

(** The code point number of an address: [(addr - code_base) / 8] when
    that is an aligned point of the image, else -1. *)
val point_index : t -> int64 -> int

(** Index of the function whose entry is exactly this address, or -1. *)
val entry_func : t -> int64 -> int

(** Index of a function by name. *)
val find_func : t -> string -> int option

(** The decoded call instruction at a code address, if the address
    holds one: what decoding the call instruction at a trap rip
    reveals. *)
val call_at : t -> int64 -> call option

(** The message a call to the missing function [name] fails with. *)
val callee_missing : string -> string
