(** The system-call table: real x86-64 numbers, the paper's Table 1
    classification of sensitive calls, and the §11.2 filesystem
    extension set. *)

type category =
  | Arbitrary_code_execution
  | Memory_permissions
  | Privilege_escalation
  | Networking
  | Filesystem   (** §11.2 extension scope *)
  | Other

val category_name : category -> string

(** (name, number, category) for every modelled syscall. *)
val table : (string * int * category) list

(** @raise Invalid_argument for names outside the table. *)
val number : string -> int

(** One more than the largest number in {!table}.  The per-number
    tables of the kernel (names, sets, handlers, seccomp rules, counts)
    cover [0 .. count - 1]; numbers outside that range fall back to the
    answers for an unknown syscall. *)
val count : int

(** [0 <= nr < count]. *)
val in_range : int -> bool

(** ["sys_<n>"] for numbers outside the table. *)
val name : int -> string

val category : int -> category

(** The paper's Table 1 set of 20 sensitive syscalls, in table order. *)
val sensitive_names : string list

val sensitive_numbers : int list
val is_sensitive : int -> bool

(** The §11.2 filesystem-related set. *)
val filesystem_numbers : int list
val is_filesystem : int -> bool

(** The C-prototype arity of a syscall wrapper (what a type-based CFI
    sees); stubs still accept the full 6-register kernel ABI. *)
val natural_arity : int -> int

(** Declare every table entry as a syscall stub in a program under
    construction. *)
val declare_stubs : Sil.Builder.program -> unit
