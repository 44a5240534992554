(* The BASTION shadow memory (§7.1): an open-addressing hash table,
   logically resident in the protected application's address space under
   a segmentation register, shared with the monitor process.

   Two kinds of entries share the table, distinguished by a tag bit in
   the key:
   - shadow copies:     key = variable address,        value = legit value
   - argument bindings: key = (callsite id, position), value = bound address

   The monitor's accesses go through [Ptrace]-charged wrappers in
   {!Monitor}; every lookup records the number of probes it took so the
   cost model (and the probe-length ablation bench) can account for
   them.

   Slots are unboxed, as in [Machine.Memory]: slot [i] holds its key at
   byte [16 i] of [cells] and its value at [16 i + 8], and byte [i] of
   [used] says whether it is occupied (0 is a legal shadow value, so
   occupancy cannot be read off the value).  A lookup returns the slot
   it found, or -1, and the caller reads the value with the inlined
   {!value}; the key a lookup probes for is first stored in the
   one-word [key] buffer, so neither computing it nor passing it to the
   probe loop boxes an [int64]. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = {
  mutable cells : Bytes.t;
  mutable used : Bytes.t;
  mutable cap : int;
  key : Bytes.t;  (** the key of the probe in flight *)
  mutable count : int;
  mutable last_probes : int;
  mutable total_probes : int;
  mutable lookups : int;
  mutable insert_probes : int;
  mutable inserts : int;
}

let initial_capacity = 1024

let create () =
  {
    cells = Bytes.make (16 * initial_capacity) '\000';
    used = Bytes.make initial_capacity '\000';
    cap = initial_capacity;
    key = Bytes.make 8 '\000';
    count = 0;
    last_probes = 0;
    total_probes = 0;
    lookups = 0;
    insert_probes = 0;
    inserts = 0;
  }

(* SplitMix64 finalizer: a good avalanche for word keys. *)
let[@inline] hash (key : int64) =
  let open Int64 in
  let z = mul key 0x9E3779B97F4A7C15L in
  let z = logxor z (shift_right_logical z 30) in
  let z = mul z 0xBF58476D1CE4E5B9L in
  let z = logxor z (shift_right_logical z 27) in
  let z = mul z 0x94D049BB133111EBL in
  to_int (logand (logxor z (shift_right_logical z 31)) 0x7FFFFFFFL)

let binding_tag = 0x4000_0000_0000_0000L

(** Key for a binding entry of (callsite id, argument position). *)
let binding_key ~id ~pos =
  Int64.logor binding_tag (Int64.of_int ((id * 16) + (pos land 15)))

let capacity t = t.cap

let[@inline] occupied t i = Bytes.unsafe_get t.used i <> '\000'

(** The value held in slot [i] (a slot a lookup returned). *)
let[@inline] value t i = get64 t.cells ((i lsl 4) + 8)

(* Walk the probe run of the key in [t.key] from its home slot
   [hash key mod capacity], one slot at a time, to the slot holding it
   or the empty slot that ends the run; returns that slot and leaves the
   number of slots examined in [last_probes].  Growth keeps the load at
   most 70%, so every run ends at an empty slot.  The capacity is a
   power of two and [hash] is non-negative, so masking with
   [capacity - 1] takes the residue without a division. *)
let walk t =
  let key = get64 t.key 0 in
  let mask = t.cap - 1 in
  let i = ref (hash key land mask) and steps = ref 1 in
  while occupied t !i && not (Int64.equal (get64 t.cells (!i lsl 4)) key) do
    i := (!i + 1) land mask;
    incr steps
  done;
  t.last_probes <- !steps;
  !i

let rec insert t key value =
  if 10 * t.count > 7 * t.cap then grow t;
  t.inserts <- t.inserts + 1;
  set64 t.key 0 key;
  let i = walk t in
  t.insert_probes <- t.insert_probes + t.last_probes;
  if not (occupied t i) then begin
    Bytes.unsafe_set t.used i '\001';
    set64 t.cells (i lsl 4) key;
    t.count <- t.count + 1
  end;
  set64 t.cells ((i lsl 4) + 8) value

(* Double the capacity and re-insert every entry in old slot order
   (each re-insert counts as an insert, as the probe-length ablation
   has always reported it). *)
and grow t =
  let old_cells = t.cells and old_used = t.used and old_cap = t.cap in
  t.cap <- 2 * old_cap;
  t.cells <- Bytes.make (16 * t.cap) '\000';
  t.used <- Bytes.make t.cap '\000';
  t.count <- 0;
  for i = 0 to old_cap - 1 do
    if Bytes.get old_used i <> '\000' then
      insert t (get64 old_cells (i lsl 4)) (get64 old_cells ((i lsl 4) + 8))
  done

(* The lookup behind every [find_*]: the slot holding the key in
   [t.key], or -1. *)
let probe t =
  t.lookups <- t.lookups + 1;
  let i = walk t in
  t.total_probes <- t.total_probes + t.last_probes;
  if occupied t i then i else -1

(** The slot holding the key [base + 8 off] (a word address), or -1. *)
let[@inline] find_at t base off =
  set64 t.key 0 (Int64.add base (Int64.mul 8L (Int64.of_int off)));
  probe t

(** The slot whose key is the value of slot [i] (the shadow copy of the
    address a binding slot holds), or -1. *)
let[@inline] find_bound t i =
  set64 t.key 0 (value t i);
  probe t

(** Probes taken by the most recent lookup or insert. *)
let last_probes t = t.last_probes

let find t key =
  set64 t.key 0 key;
  let i = probe t in
  if i < 0 then None else Some (value t i)

(* Convenience wrappers -------------------------------------------------- *)

let set_shadow t ~addr ~value = insert t addr value
let shadow t ~addr = find t addr
let set_binding t ~id ~pos ~addr = insert t (binding_key ~id ~pos) addr
let binding t ~id ~pos = find t (binding_key ~id ~pos)

let entry_count t = t.count
let lookup_count t = t.lookups

(** Total slots examined across all lookups (the raw counter behind
    {!mean_probe_length}; the observability layer reads per-trap deltas
    of it). *)
let probe_count t = t.total_probes

(** Mean probes per lookup so far (ablation statistic). *)
let mean_probe_length t =
  if t.lookups = 0 then 0.0 else float_of_int t.total_probes /. float_of_int t.lookups

let insert_count t = t.inserts
let insert_probe_count t = t.insert_probes

(** Mean probes per insert so far, including rehash probes during
    growth (the write-side ablation statistic). *)
let mean_insert_probe_length t =
  if t.inserts = 0 then 0.0
  else float_of_int t.insert_probes /. float_of_int t.inserts
