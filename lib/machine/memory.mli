(** Word-addressable sparse memory.  Accesses are 8-byte-word sized;
    unmapped reads return zero (a zero-filled sparse address space —
    which also lets out-of-bounds indexing read whatever lives at the
    computed address, as the NEWTON attacks require). *)

type t

val create : unit -> t

(** [read] and [write] probe inline (growth and unmapping do not), so
    in a release build, where they are inlined into the caller, a word
    moves between the table and the caller's arithmetic unboxed. *)
val read : t -> int64 -> int64

(** [read_at t base off] is [read t (addr_add base off)]; it allocates
    nothing, so checks that compare words one at a time use it. *)
val read_at : t -> int64 -> int -> int64

(** Writing zero unmaps the word. *)
val write : t -> int64 -> int64 -> unit

val word : int64

(** [addr_add a n] is [a + 8*n]. *)
val addr_add : int64 -> int -> int64

val read_block : t -> int64 -> int -> int64 array
val write_block : t -> int64 -> int64 array -> unit

(** NUL-terminated string stored one character per word. *)
val read_string : ?max_len:int -> t -> int64 -> string

(** Returns the number of words written (including the NUL). *)
val write_string : t -> int64 -> string -> int

val mapped_words : t -> int
