(** The trap fast path's CT+CF verdict cache: direct-mapped over a
    fixed number of slots, keyed by a 64-bit mix of (syscall number,
    trap rip, the stack's [(function, return token)] chain).  A hit
    means this exact callsite and return-token chain already passed
    Call-Type and Control-Flow under the current epoch, so the monitor
    may skip the unwind-and-validate walk and go straight to Argument
    Integrity (which always re-runs).

    Safety: every step of {!key} is a bijection of the accumulator, so
    corrupting any single chain element — even by one bit — provably
    changes the key; a pivoted or ROP'd stack can never hit.

    Only recorded slots are stored, in a table that starts at 8
    entries and grows with what it holds; a probe allocates nothing. *)

type t

val default_size : int

(** [create ?size ()] builds an empty cache of [size] slots, rounded up
    to a power of two (default {!default_size}). *)
val create : ?size:int -> unit -> t

val size : t -> int

(** The name hashes of a program's functions by code-image index. *)
type names

(** [names funcs]: the hash of [funcs.(f)] for every index [f],
    computed here. *)
val names : string array -> names

(** The cache key of one trap: syscall number, trap rip, and the
    snapshot's frames, innermost first, each contributing the hash of
    its function's name (through [names] by [fv_fidx], which must index
    the function named [fv_func]; hashed on the fly when [fv_fidx] is
    -1) and its return token.  Allocates nothing but the result. *)
val key_of_frames :
  sysno:int -> rip:int64 -> names:names -> Kernel.Ptrace.frame_view list -> int64

(** Probe for a key recorded under the current epoch (counts hit/miss
    statistics). *)
val probe : t -> int64 -> bool

(** Record a key that just passed CT and CF. *)
val record : t -> int64 -> unit

(** Invalidate every cached verdict (metadata or seccomp filter
    rebuild). *)
val bump_epoch : t -> unit

val hits : t -> int
val misses : t -> int
val records : t -> int
val epoch : t -> int

(** Hits / (hits + misses); 0 before the first probe. *)
val hit_rate : t -> float
