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

   A slot is two words: its key, stored unboxed in [keys], and the
   epoch it was recorded under, -1 for a slot never recorded (epochs
   count up from 0, so such a slot can never hit). *)

type t = {
  keys : Bytes.t;       (** slot [i]'s key at byte [8 i], native endian *)
  epochs : int array;   (** epoch each slot was recorded under; -1: never *)
  mask : int;           (** size - 1; size is a power of two *)
  mutable epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable records : int;
  mutable epoch_bumps : int;
}

let default_size = 4096

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ?(size = default_size) () =
  let size = pow2_at_least (max 1 size) 1 in
  {
    keys = Bytes.make (8 * size) '\000';
    epochs = Array.make size (-1);
    mask = size - 1;
    epoch = 0;
    hits = 0;
    misses = 0;
    records = 0;
    epoch_bumps = 0;
  }

let size t = t.mask + 1

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

(** Name hashes by code-image function index, each computed the first
    time a frame of that function is keyed: a monitor keys the few
    functions its traps' stacks hold, out of programs with hundreds. *)
type names = { hashes : int64 array; known : Bytes.t }

let names n = { hashes = Array.make n 0L; known = Bytes.make n '\000' }

(* The name hash of the function with index [fidx], named [func]. *)
let function_hash names fidx func =
  if Bytes.unsafe_get names.known fidx = '\000' then begin
    names.hashes.(fidx) <- name_hash func;
    Bytes.unsafe_set names.known fidx '\001'
  end;
  names.hashes.(fidx)

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
        if fv.fv_fidx >= 0 then function_hash names fv.fv_fidx fv.fv_func
        else name_hash fv.fv_func
      in
      let with_name = mix (Int64.logxor !h name) in
      let tok = match fv.fv_ret_token with None -> no_token | Some tok -> mix tok in
      h := mix (Int64.logxor with_name tok)
  done;
  !h

let index t k = Int64.to_int (Int64.logand k 0x7FFFFFFFL) land t.mask

(** Probe for a key recorded under the current epoch. *)
let probe t k =
  let i = index t k in
  let hit = t.epochs.(i) = t.epoch && Int64.equal (Bytes.get_int64_ne t.keys (8 * i)) k in
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  hit

(** Record a key that just passed CT and CF under the current epoch. *)
let record t k =
  let i = index t k in
  Bytes.set_int64_ne t.keys (8 * i) k;
  t.epochs.(i) <- t.epoch;
  t.records <- t.records + 1

(** Invalidate every cached verdict (metadata / filter rebuild). *)
let bump_epoch t =
  t.epoch <- t.epoch + 1;
  t.epoch_bumps <- t.epoch_bumps + 1

let hits t = t.hits
let misses t = t.misses
let records t = t.records
let epoch t = t.epoch

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
