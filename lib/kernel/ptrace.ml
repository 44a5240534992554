(* The tracer interface the BASTION monitor uses to inspect a stopped
   tracee (PTRACE_GETREGS + process_vm_readv in the paper).  Every
   operation charges its modelled cycle cost to the tracee's clock —
   this is the cost that dominates Table 7.

   Because each process_vm_readv call carries a fixed per-call price on
   top of the per-word transfer cost, the monitor's fast path reads the
   tracee with [snapshot]: the whole stack span and the union of the
   frames' sensitive-slot spans in one or two coalesced calls, instead
   of one call per frame plus one per region.

   A batched read the monitor only compares word by word is charged up
   front ([charge_read], [charge_string]) and its words are then read
   one at a time with [peek_at] as they are compared: the tracee is
   stopped, so they are the words the call would have copied, and no
   boxed [int64 array] is built for them. *)

type regs = { rip : int64; sysno : int; args : Machine.Args.t }

type frame_view = {
  fv_func : string;
      (** function the frame is executing (what a real unwinder infers
          from the frame's code addresses) *)
  fv_fidx : int;
      (** index of [fv_func] in the layout's code image; -1 for a name
          the program has no function for *)
  fv_callsite : int64;
      (** code address of the call this frame has in flight *)
  fv_args : Machine.Args.t;
      (** argument registers as spilled at that callsite *)
  fv_ret_token : int64 option;
      (** memory-resident return address (None for the entry frame) —
          read back from the corruptible stack *)
  fv_base : int64;
      (** frame base address (for locating local-variable slots) *)
}

type frame_slots = {
  sl_lo : int;            (** word offset of the span's first slot *)
  sl_span : int64 array;  (** slot words [lo .. lo + length - 1] *)
}

type snapshot = {
  sn_frames : frame_view list;   (** unwound frames, innermost first *)
  sn_slots : (int64 * frame_slots) list option;
      (** per frame base, the frame's sensitive-slot span, for an
          injected snapshot; [None] for a live one, whose slot words the
          checks read with [peek_at] as they compare them *)
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

let create machine =
  { machine; cur_sysno = -1; getregs_count = 0; words_read = 0; frames_walked = 0;
    calls_made = 0 }

let cost (t : t) = t.machine.config.cost

let getregs (t : t) : regs =
  t.getregs_count <- t.getregs_count + 1;
  Machine.charge t.machine (cost t).ptrace_getregs;
  { rip = Int64.of_int t.machine.trap_rip; sysno = t.cur_sysno;
    args = Machine.call_args t.machine }

(** Charge and count one batched remote read of [n] words: one call,
    [n] words of transfer. *)
let charge_read (t : t) n =
  t.calls_made <- t.calls_made + 1;
  t.words_read <- t.words_read + n;
  Machine.charge t.machine ((cost t).ptrace_call + (n * (cost t).ptrace_read_word))

(** The tracee word at [base + 8 off], for a region whose batched read
    has been charged. *)
let[@inline] peek_at (t : t) base off = Machine.Memory.read_at t.machine.mem base off

(** Charge the read of a NUL-terminated string (one char per word, at
    most 4096 chars) at [addr]: its words plus the terminator, in one
    call. *)
let charge_string (t : t) addr =
  let len = ref 0 in
  while !len < 4096 && not (Int64.equal (peek_at t addr !len) 0L) do
    incr len
  done;
  charge_read t (!len + 1)

(* A frame as the unwinder sees it.  The arguments are copied: the
   frame's argument file belongs to its depth, and the next call made
   there overwrites it. *)
let view_of_frame (t : t) (frame : Machine.frame) : frame_view =
  let fidx = Machine.frame_fidx t.machine frame in
  {
    fv_func = (Machine.Layout.image t.machine.layout).funcs.(fidx).name;
    fv_fidx = fidx;
    fv_callsite = Int64.of_int frame.callsite;
    fv_args = Machine.Args.copy frame.args;
    fv_ret_token = Machine.read_ret_addr t.machine frame;
    fv_base = Int64.of_int frame.frame_base;
  }

(** Coalesced snapshot of the tracee's stack: one batched call for the
    whole stack span (frame records, spilled in-flight arguments,
    return tokens) and, when any frame has sensitive slots, a second
    batched call for the union of their spans — O(1-2) calls where a
    per-frame unwind plus per-region reads cost O(frames + regions).
    [span_words.(f)] is the length in words of function [f]'s
    sensitive-slot span (0 when it has none).  The slot words stay in
    the stopped tracee: the checks read them with {!peek_at}. *)
let snapshot (t : t) ~(span_words : int array) : snapshot =
  let mframes = Machine.frames t.machine in
  let nframes = List.length mframes in
  (* Call 1: the contiguous stack span, two record words per frame. *)
  let frame_words = 2 * nframes in
  t.calls_made <- t.calls_made + 1;
  t.frames_walked <- t.frames_walked + nframes;
  t.words_read <- t.words_read + frame_words;
  Machine.charge t.machine
    ((cost t).ptrace_call + (frame_words * (cost t).ptrace_read_word));
  let sn_frames = List.map (view_of_frame t) mframes in
  (* Call 2: the union of the frames' sensitive-slot spans, gathered in
     one scatter-read (process_vm_readv takes an iovec list, so
     disjoint per-frame spans still cost a single call). *)
  let slot_words =
    List.fold_left (fun acc fv -> acc + span_words.(fv.fv_fidx)) 0 sn_frames
  in
  let sn_calls =
    if slot_words = 0 then 1
    else begin
      charge_read t slot_words;
      2
    end
  in
  { sn_frames; sn_slots = None; sn_calls }

(** The sensitive-slot spans of a snapshot per frame base, innermost
    frame first, as a trap record stores them: an injected snapshot's
    own, or for a live one the words at [lo.(f)] .. [lo.(f) +
    span_words.(f) - 1] of each frame of a function [f] with a span,
    read from the stopped tracee (the snapshot has charged them). *)
let slot_spans (t : t) (snap : snapshot) ~(lo : int array) ~(span_words : int array) =
  match snap.sn_slots with
  | Some spans -> spans
  | None ->
    List.filter_map
      (fun fv ->
        let n = span_words.(fv.fv_fidx) in
        if n = 0 then None
        else
          let lo = lo.(fv.fv_fidx) in
          let span = Array.init n (fun i -> peek_at t fv.fv_base (lo + i)) in
          Some (fv.fv_base, { sl_lo = lo; sl_span = span }))
      snap.sn_frames

(* ------------------------------------------------------------------ *)
(* Replay injection.  The replay engine re-drives the monitor against a
   *recorded* trap stream: the register file and stack snapshot come
   from the trace, not from the (replayed) tracee.  Fidelity demands
   the injected fetches charge exactly what the live reads would for
   the same shape, so a faithful trace replays to bit-identical cycle
   totals; the counters move the same way for the same reason. *)

(** Charge and count exactly what {!getregs} would, then hand back the
    recorded register file instead of reading the tracee. *)
let inject_regs (t : t) (regs : regs) : regs =
  t.getregs_count <- t.getregs_count + 1;
  Machine.charge t.machine (cost t).ptrace_getregs;
  regs

(** Charge and count exactly what {!snapshot} would for a stack of this
    shape (one batched call for the frame span, one more when any
    sensitive-slot words were read), then hand back the recorded
    snapshot.  [sn_calls] is recomputed from the shape, so a corrupted
    recorded value cannot skew the accounting. *)
let inject_snapshot (t : t) (snap : snapshot) : snapshot =
  let nframes = List.length snap.sn_frames in
  let frame_words = 2 * nframes in
  t.calls_made <- t.calls_made + 1;
  t.frames_walked <- t.frames_walked + nframes;
  t.words_read <- t.words_read + frame_words;
  Machine.charge t.machine
    ((cost t).ptrace_call + (frame_words * (cost t).ptrace_read_word));
  let slot_words =
    List.fold_left
      (fun acc (_, s) -> acc + Array.length s.sl_span)
      0
      (Option.value ~default:[] snap.sn_slots)
  in
  let sn_calls =
    if slot_words = 0 then 1
    else begin
      charge_read t slot_words;
      2
    end
  in
  { snap with sn_calls }

(** Map a memory-resident return token back to the callsite (the call
    instruction immediately preceding the resume point), as an unwinder
    maps return addresses to call instructions.  Returns [None] if the
    token does not point into code or points at a block entry (which no
    legitimate call produces). *)
let callsite_of_token (t : t) token : Sil.Loc.t option =
  match Machine.Layout.point_of_addr t.machine.layout token with
  | Some (Machine.Layout.Instr_at loc) ->
    if loc.index = 0 then None else Some { loc with index = loc.index - 1 }
  | Some (Machine.Layout.Term_of (func, block)) ->
    let f = Sil.Prog.find_func t.machine.prog func in
    let b = Sil.Func.find_block f block in
    let n = Array.length b.instrs in
    if n = 0 then None else Some (Sil.Loc.make func block (n - 1))
  | None -> None
