(** The tracer interface the BASTION monitor uses to inspect a stopped
    tracee (PTRACE_GETREGS + process_vm_readv in the paper).  Every
    operation charges its modelled cycle cost to the tracee's clock —
    the cost that dominates Table 7.  The monitor's fast path uses
    {!snapshot} to read the whole stack (and the sensitive-slot spans)
    in one or two coalesced calls instead of one per frame. *)

(** [args] is the live register file of the stopped call
    ({!Machine.call_args}): valid until the tracee resumes. *)
type regs = { rip : int64; sysno : int; args : Machine.Args.t }

(** One unwound stack frame, innermost first. *)
type frame_view = {
  fv_func : string;
      (** function the frame is executing (what an unwinder infers from
          the frame's code addresses) *)
  fv_fidx : int;
      (** index of [fv_func] in the layout's code image
          ({!Machine.Layout.find_func}); -1 for a name the program has
          no function for *)
  fv_callsite : int64;
      (** code address of the call this frame has in flight *)
  fv_args : Machine.Args.t;
      (** argument registers as spilled at that callsite, copied when
          the snapshot is taken *)
  fv_ret_token : int64 option;
      (** memory-resident return address, read back from the
          corruptible stack ([None] for the entry frame) *)
  fv_base : int64;
      (** frame base address (locates local-variable slots) *)
}

(** One frame's sensitive-slot span as prefetched by {!snapshot}. *)
type frame_slots = {
  sl_lo : int;            (** word offset of the span's first slot *)
  sl_span : int64 array;  (** slot words [lo .. lo + length - 1] *)
}

(** A coalesced read of everything the CF and AI contexts need. *)
type snapshot = {
  sn_frames : frame_view list;  (** unwound frames, innermost first *)
  sn_slots : (int64 * frame_slots) list option;
      (** per frame base, the frame's sensitive-slot span, for an
          injected snapshot; [None] for a live one, whose slot words the
          checks read with {!peek_at} as they compare them *)
  sn_calls : int;  (** process_vm_readv calls this snapshot cost (1-2) *)
}

type t = {
  machine : Machine.t;
  mutable cur_sysno : int;   (** set by the kernel before a TRACE stop *)
  mutable getregs_count : int;
  mutable words_read : int;
  mutable frames_walked : int;
  mutable calls_made : int;  (** process_vm_readv calls issued *)
}

val create : Machine.t -> t

(** PTRACE_GETREGS: rip of the trapping callsite, syscall number and
    argument registers. *)
val getregs : t -> regs

(** Charge and count one batched remote read of [n] words (one call).
    The monitor charges each region it verifies this way, then reads
    the words with {!peek_at} as it compares them: the tracee is
    stopped, so they are the words the call copies. *)
val charge_read : t -> int -> unit

(** [peek_at t base off]: the tracee word at [base + 8 off], read
    without a charge (its batched read is charged separately) and
    without allocating. *)
val peek_at : t -> int64 -> int -> int64

(** Charge the read of the NUL-terminated string (one char per word,
    at most 4096) at an address: its words plus the terminator, in one
    call. *)
val charge_string : t -> int64 -> unit

(** Coalesced stack fetch: the whole stack span in one batched call
    plus, when any frame has sensitive slots, the union of their spans
    in a second — O(1-2) calls where a per-frame unwind plus per-region
    reads cost O(frames + regions).  [span_words.(f)] is the length in words
    of the sensitive-slot span of the function with code-image index
    [f] (0 when it has none).  The result is live: its slot words stay
    in the stopped tracee. *)
val snapshot : t -> span_words:int array -> snapshot

(** A snapshot's sensitive-slot spans per frame base, innermost frame
    first, as a trap record stores them: an injected snapshot's own; for
    a live one, each frame of a function [f] with a span gets the words
    at offsets [lo.(f)] .. [lo.(f) + span_words.(f) - 1] from its base,
    read now (uncharged: the snapshot paid for them). *)
val slot_spans :
  t -> snapshot -> lo:int array -> span_words:int array -> (int64 * frame_slots) list

(** Replay injection: charge and count exactly what {!getregs} would,
    then hand back the recorded register file instead of reading the
    tracee.  A faithful trace replays to bit-identical cycle totals. *)
val inject_regs : t -> regs -> regs

(** Replay injection: charge and count exactly what {!snapshot} would
    for a stack of this shape, then hand back the recorded snapshot
    ([sn_calls] recomputed from the shape). *)
val inject_snapshot : t -> snapshot -> snapshot

(** Map a memory-resident return token back to the call instruction
    immediately preceding the resume point, as an unwinder maps return
    addresses to callsites.  [None] when the token does not decode. *)
val callsite_of_token : t -> int64 -> Sil.Loc.t option
