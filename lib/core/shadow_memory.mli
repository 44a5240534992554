(** The BASTION shadow memory (§7.1): an open-addressing hash table,
    logically resident in the protected application's address space and
    mapped shared with the monitor.

    Two kinds of entries share the table, distinguished by a tag bit:
    shadow copies (key = variable address, value = legitimate value) and
    argument bindings (key = (callsite id, position), value = bound
    address). *)

type t

val create : unit -> t

(** Key for a binding entry; guaranteed disjoint from addresses. *)
val binding_key : id:int -> pos:int -> int64

val capacity : t -> int

(** Insert or update an entry (grows the table as needed). *)
val insert : t -> int64 -> int64 -> unit

(** {2 Slot lookups}

    What the monitor's per-trap checks use: a lookup returns the slot
    holding its key, or -1, without allocating; {!last_probes} is the
    number of slots it examined and {!value} reads the slot. *)

(** [find_at t base off]: the slot holding the key [base + 8 off] (a
    word address; [off] = 0 for any other key), or -1. *)
val find_at : t -> int64 -> int -> int

(** [find_bound t i]: the slot keyed by the value of slot [i] (the
    shadow copy of the address a binding slot holds), or -1. *)
val find_bound : t -> int -> int

(** The value held in a slot a lookup returned. *)
val value : t -> int -> int64

(** Slots examined by the most recent lookup (or insert). *)
val last_probes : t -> int

(** The value of a key, if present (counts as a lookup). *)
val find : t -> int64 -> int64 option

val set_shadow : t -> addr:int64 -> value:int64 -> unit
val shadow : t -> addr:int64 -> int64 option
val set_binding : t -> id:int -> pos:int -> addr:int64 -> unit
val binding : t -> id:int -> pos:int -> int64 option

val entry_count : t -> int

(** Lookups performed so far. *)
val lookup_count : t -> int

(** Total slots examined across all lookups (the raw counter behind
    {!mean_probe_length}). *)
val probe_count : t -> int

(** Mean probes per lookup so far (ablation statistic). *)
val mean_probe_length : t -> float

(** Inserts performed (including rehash inserts during growth). *)
val insert_count : t -> int

(** Slots examined across all inserts (the write-side analogue of the
    lookup probe count). *)
val insert_probe_count : t -> int

(** Mean probes per insert so far (write-side ablation statistic). *)
val mean_insert_probe_length : t -> float
