(* Word-addressable sparse memory.

   Addresses are byte addresses but all accesses are 8-byte-word aligned
   and word-sized (SIL is word oriented).  Unmapped reads return zero,
   which models a zero-filled sparse address space and — importantly for
   the NEWTON-style attacks — lets out-of-bounds array indexing read
   whatever happens to live at the computed address. *)

(* The mapped words live in an open-addressing table keyed by the full
   64-bit address: one buffer of unboxed (address, value) pairs, probed
   linearly from a slot the address hashes to.  A slot is empty iff its
   value is 0, since a mapped word is never zero (writing zero unmaps).
   The hash multiplies by a 64-bit odd constant and keeps the upper
   bits of the product, which mix every address bit below them:
   addresses are word-aligned and the regions start at multiples of
   1 MB, so the low bits alone would pile the regions' first words into
   one run.  The table doubles before it is half full, so every probe
   sequence ends at an empty slot. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = { mutable cells : Bytes.t; mutable mask : int; mutable count : int }

(* Slot [i] holds its address at byte [16 i] and its value at [16 i + 8]. *)
let key cells i = get64 cells (i lsl 4)
let value cells i = get64 cells ((i lsl 4) + 8)

let set_value cells i v = set64 cells ((i lsl 4) + 8) v

let set cells i a v =
  set64 cells (i lsl 4) a;
  set_value cells i v

let create () = { cells = Bytes.make (16 * 1024) '\000'; mask = 1023; count = 0 }

let home mask a = (Int64.to_int (Int64.mul a 0x9E37_79B9_7F4A_7C15L) lsr 31) land mask

let word = 8L

let[@inline] addr_add addr words = Int64.add addr (Int64.mul word (Int64.of_int words))

(* The slot holding [a], or the empty slot that ends its probe
   sequence.  Inlined into [read] and [write], so the address is never
   boxed to cross a call. *)
let[@inline] probe cells mask a =
  let i = ref (home mask a) in
  while not (Int64.equal (value cells !i) 0L || Int64.equal (key cells !i) a) do
    i := (!i + 1) land mask
  done;
  !i

(* An empty slot's value is 0, which is what an unmapped word reads as. *)
let[@inline] read t addr = value t.cells (probe t.cells t.mask addr)

(** The word at [base + 8 off].  Inlined, so a caller that only
    compares the word never boxes it. *)
let[@inline] read_at t base off = read t (addr_add base off)

let grow t =
  let old = t.cells and slots = t.mask + 1 in
  t.cells <- Bytes.make (32 * slots) '\000';
  t.mask <- (2 * slots) - 1;
  for i = 0 to slots - 1 do
    let v = value old i in
    if not (Int64.equal v 0L) then
      let a = key old i in
      set t.cells (probe t.cells t.mask a) a v
  done

(* Backward-shift deletion: walk the run after the hole and move back
   each entry whose home slot does not lie cyclically in (hole, j], so
   no probe sequence crosses an empty slot. *)
let rec unmap t hole j =
  let j = (j + 1) land t.mask in
  let v = value t.cells j in
  if Int64.equal v 0L then set_value t.cells hole 0L
  else
    let k = home t.mask (key t.cells j) in
    let stays = if hole <= j then hole < k && k <= j else hole < k || k <= j in
    if stays then unmap t hole j
    else begin
      set t.cells hole (key t.cells j) v;
      unmap t j j
    end

(* Inlined, like [read]; growth and unmapping stay out of line. *)
let[@inline] write t addr v =
  let cells = t.cells in
  let i = probe cells t.mask addr in
  if Int64.equal (value cells i) 0L then begin
    if not (Int64.equal v 0L) then begin
      set cells i addr v;
      t.count <- t.count + 1;
      if 2 * t.count > t.mask then grow t
    end
  end
  else if Int64.equal v 0L then begin
    unmap t i i;
    t.count <- t.count - 1
  end
  else set_value cells i v

(** Read [n] consecutive words starting at [addr]. *)
let read_block t addr n = Array.init n (fun i -> read t (addr_add addr i))

let write_block t addr words =
  Array.iteri (fun i v -> write t (addr_add addr i) v) words

(** Read a NUL-terminated string stored one character per word. *)
let read_string ?(max_len = 4096) t addr =
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= max_len then Buffer.contents buf
    else
      let c = read t (addr_add addr i) in
      if Int64.equal c 0L then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr (Int64.to_int c land 0xff));
        go (i + 1)
      end
  in
  go 0

(** Store a string one character per word, NUL terminated; returns the
    number of words written. *)
let write_string t addr s =
  String.iteri (fun i c -> write t (addr_add addr i) (Int64.of_int (Char.code c))) s;
  write t (addr_add addr (String.length s)) 0L;
  String.length s + 1

let mapped_words t = t.count
