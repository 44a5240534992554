(* The trap fast path's CT+CF verdict cache: a fixed-size direct-mapped
   cache keyed by a 64-bit mix of (syscall number, trap rip, the stack's
   [(function, return token)] chain).

   Safety argument (encoded in the test suite): a cached key means this
   exact callsite + return-token chain already passed the Call-Type and
   Control-Flow contexts.  Any ROP/pivot attack necessarily changes a
   return token, a frame's function, or the trap rip — and every step of
   the key computation is a bijection of the accumulator, so changing
   any single chain element (even by one bit) provably changes the key.
   A corrupted stack can therefore never hit the cache.  Argument
   Integrity is deliberately NOT cached: argument values change per
   request and must be re-verified on every trap.

   The cache carries an epoch; entries recorded under an older epoch
   miss.  The monitor bumps the epoch whenever the metadata or the
   seccomp filter is rebuilt.

   Geometry and storage are separate.  The geometry is [size]
   direct-mapped slots: a key's slot is its low bits, and recording a
   key replaces whatever its slot held.  Only the recorded slots are
   stored, in an open-addressing table keyed by slot index, probed
   linearly from the index's low bits.  A session records a handful of
   keys out of thousands of slots, so the table starts at 8 entries and
   doubles at half load, which keeps every probe sequence ending at an
   empty entry. *)

type t = {
  mutable occ : int array;
      (** entry [e]'s slot index at [2 e] (-1: empty) and the epoch it
          was recorded under at [2 e + 1] *)
  mutable keys : Bytes.t;  (** entry [e]'s key at byte [8 e], native endian *)
  mutable mask : int;  (** entries - 1; the entry count is a power of two *)
  mutable used : int;  (** non-empty entries *)
  slot_mask : int;  (** size - 1; size is a power of two *)
  mutable epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable records : int;
}

let default_size = 4096

let initial_entries = 8

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let table entries = (Array.make (2 * entries) (-1), Bytes.create (8 * entries))

let create ?(size = default_size) () =
  let occ, keys = table initial_entries in
  {
    occ;
    keys;
    mask = initial_entries - 1;
    used = 0;
    slot_mask = pow2_at_least (max 1 size) 1 - 1;
    epoch = 0;
    hits = 0;
    misses = 0;
    records = 0;
  }

let size t = t.slot_mask + 1

(* SplitMix64 finalizer: a bijective avalanche over 64-bit words.
   Inlined, so the key fold keeps its accumulator unboxed. *)
let[@inline] mix (key : int64) =
  let open Int64 in
  let z = mul key 0x9E3779B97F4A7C15L in
  let z = logxor z (shift_right_logical z 30) in
  let z = mul z 0xBF58476D1CE4E5B9L in
  let z = logxor z (shift_right_logical z 27) in
  let z = mul z 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* A function name's contribution to the key: every character mixed
   into the accumulator in turn. *)
let name_hash (s : string) =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    h := mix (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
  done;
  !h

(* Sentinel mixed in for the entry frame's missing return token;
   distinct from any mix of a real token with overwhelming margin. *)
let no_token = 0x5BD1E9955BD1E995L

(** Name hashes by code-image function index: function [f]'s at byte
    [8 f]. *)
type names = Bytes.t

let names (funcs : string array) =
  let b = Bytes.create (8 * Array.length funcs) in
  Array.iteri (fun f name -> Bytes.set_int64_ne b (8 * f) (name_hash name)) funcs;
  b

(** The cache key of one trap, folded straight over the snapshot's
    frames: per frame, the function's name hash (from [names] by code
    image index; computed here for a name outside the program), then
    its return token.  Every fold step is [mix (acc xor x)], a
    bijection of [acc], so two stacks differing in exactly one element
    always map to different keys. *)
let key_of_frames ~(sysno : int) ~(rip : int64) ~(names : names)
    (frames : Kernel.Ptrace.frame_view list) : int64 =
  let h = ref (mix (Int64.logxor rip (Int64.of_int sysno))) in
  let rest = ref frames and more = ref true in
  while !more do
    match !rest with
    | [] -> more := false
    | fv :: tl ->
      rest := tl;
      let name =
        if fv.fv_fidx >= 0 then Bytes.get_int64_ne names (8 * fv.fv_fidx)
        else name_hash fv.fv_func
      in
      let with_name = mix (Int64.logxor !h name) in
      let tok = match fv.fv_ret_token with None -> no_token | Some tok -> mix tok in
      h := mix (Int64.logxor with_name tok)
  done;
  !h

let slot_of t k = Int64.to_int (Int64.logand k 0x7FFFFFFFL) land t.slot_mask

(* The entry holding slot [s], or the empty entry that ends its probe
   sequence. *)
let entry occ mask s =
  let e = ref (s land mask) in
  while occ.(2 * !e) <> s && occ.(2 * !e) >= 0 do
    e := (!e + 1) land mask
  done;
  !e

(** Probe for a key recorded under the current epoch. *)
let probe t k =
  let s = slot_of t k in
  let e = entry t.occ t.mask s in
  let hit =
    t.occ.(2 * e) = s
    && t.occ.((2 * e) + 1) = t.epoch
    && Int64.equal (Bytes.get_int64_ne t.keys (8 * e)) k
  in
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  hit

let grow t =
  let old_occ = t.occ and old_keys = t.keys and entries = 2 * (t.mask + 1) in
  let occ, keys = table entries in
  for e = 0 to t.mask do
    let s = old_occ.(2 * e) in
    if s >= 0 then begin
      let e' = entry occ (entries - 1) s in
      occ.(2 * e') <- s;
      occ.((2 * e') + 1) <- old_occ.((2 * e) + 1);
      Bytes.blit old_keys (8 * e) keys (8 * e') 8
    end
  done;
  t.occ <- occ;
  t.keys <- keys;
  t.mask <- entries - 1

(** Record a key that just passed CT and CF under the current epoch. *)
let record t k =
  let s = slot_of t k in
  let e = entry t.occ t.mask s in
  if t.occ.(2 * e) < 0 then t.used <- t.used + 1;
  t.occ.(2 * e) <- s;
  t.occ.((2 * e) + 1) <- t.epoch;
  Bytes.set_int64_ne t.keys (8 * e) k;
  t.records <- t.records + 1;
  if 2 * t.used > t.mask then grow t

(** Invalidate every cached verdict (metadata / filter rebuild). *)
let bump_epoch t = t.epoch <- t.epoch + 1

let hits t = t.hits
let misses t = t.misses
let records t = t.records
let epoch t = t.epoch

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
