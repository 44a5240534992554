(* Hardware-style shadow stack (Intel CET, AMD Zen 3+).

   The CPU pushes a second copy of each return address onto a stack that
   ordinary stores cannot reach; on return it compares the program-stack
   copy with the shadow copy and faults on mismatch.  In the simulator
   the shadow stack is a plain OCaml structure deliberately *not* mapped
   into the corruptible machine memory, which is exactly the property
   the hardware provides.

   The entries are unboxed words in a buffer that doubles when full, so
   in a release build, where [push] and [pop_check] inline into the
   interpreter, a call and its return move their token without
   allocating. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = {
  mutable words : Bytes.t;  (** entry [i] at byte [8 i] *)
  mutable top : int;        (** live entries *)
  mutable pushes : int;
  mutable checks : int;
}

exception Violation of { expected : int64; actual : int64 }

exception Underflow

let create () = { words = Bytes.empty; top = 0; pushes = 0; checks = 0 }

let grow t =
  let words = Bytes.create (max 128 (2 * Bytes.length t.words)) in
  Bytes.blit t.words 0 words 0 (8 * t.top);
  t.words <- words

let[@inline] push t addr =
  t.pushes <- t.pushes + 1;
  if 8 * t.top >= Bytes.length t.words then grow t;
  set64 t.words (8 * t.top) addr;
  t.top <- t.top + 1

let violation expected actual = raise (Violation { expected; actual })

(** Pop and compare against the (possibly corrupted) program-stack return
    address.  Raises {!Violation} on mismatch, {!Underflow} on an empty
    shadow stack (a return with no matching call). *)
let[@inline] pop_check t ~(actual : int64) =
  t.checks <- t.checks + 1;
  if t.top = 0 then raise Underflow;
  t.top <- t.top - 1;
  let expected = get64 t.words (8 * t.top) in
  if expected <> actual then violation expected actual

let depth t = t.top
let pushes t = t.pushes
let checks t = t.checks
