(* The simulated machine: interprets a SIL program over concrete,
   corruptible memory.

   Faithfulness properties that matter for the reproduction:
   - all locals live in stack memory at concrete addresses (an attacker
     write primitive can corrupt any variable, as in the paper's threat
     model);
   - return addresses are plain words in stack memory, read back on
     [Ret] — overwriting one performs a real control transfer (ROP);
   - function pointers are code addresses; indirect calls resolve
     whatever address the loaded word holds, so corrupted pointers and
     out-of-bounds index reads (NEWTON) redirect control for real;
   - CET, when enabled, keeps a shadow copy of return addresses outside
     the corruptible memory and faults on mismatch;
   - syscall stubs do not execute as code: invoking one enters the
     kernel handler installed by the embedder (seccomp, tracing and the
     BASTION monitor all live behind that handler). *)

module Memory = Memory
module Layout = Layout
module Cost = Cost

type fault =
  | Cet_violation of { expected : int64; actual : int64 }
  | Cfi_violation of { callsite : Sil.Loc.t; target : int64 }
  | Seccomp_kill of { sysno : int }
  | Monitor_kill of { context : string; detail : string }
  | Bad_indirect_target of { callsite : Sil.Loc.t; target : int64 }
  | Bad_return_target of { target : int64 }
  | Fuel_exhausted

exception Killed of fault

let fault_to_string = function
  | Cet_violation { expected; actual } ->
    Printf.sprintf "CET shadow-stack violation (expected %Lx, got %Lx)" expected actual
  | Cfi_violation { callsite; target } ->
    Printf.sprintf "LLVM-CFI violation at %s (target %Lx)" (Sil.Loc.to_string callsite) target
  | Seccomp_kill { sysno } -> Printf.sprintf "seccomp SECCOMP_RET_KILL (syscall %d)" sysno
  | Monitor_kill { context; detail } ->
    Printf.sprintf "BASTION monitor kill: %s context violated (%s)" context detail
  | Bad_indirect_target { callsite; target } ->
    Printf.sprintf "indirect call to non-function address %Lx at %s" target
      (Sil.Loc.to_string callsite)
  | Bad_return_target { target } ->
    Printf.sprintf "return to non-code address %Lx" target
  | Fuel_exhausted -> "fuel exhausted"

type outcome = Exited of int64 | Faulted of fault

(* The argument registers of one call: [len] words, unboxed, in
   [words].  Each call depth owns one file, sized for the program's
   widest call, which the calls made at that depth overwrite. *)
module Args = struct
  external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  type t = { mutable len : int; words : Bytes.t }

  let create capacity = { len = 0; words = Bytes.create (8 * capacity) }
  let length a = a.len

  let[@inline] get a i = if i >= 0 && i < a.len then get64 a.words (i lsl 3) else 0L
  let[@inline] get_int a i = Int64.to_int (get a i)

  let set a i v =
    if i < 0 || i >= a.len then invalid_arg "Machine.Args.set: no such argument";
    set64 a.words (i lsl 3) v

  let of_array arr =
    let a = create (Array.length arr) in
    a.len <- Array.length arr;
    Array.iteri (fun i v -> set64 a.words (i lsl 3) v) arr;
    a

  let to_array a = Array.init a.len (fun i -> get64 a.words (i lsl 3))
  let copy a = { len = a.len; words = Bytes.sub a.words 0 (8 * a.len) }
end

type frame = {
  mutable fblock : int;  (** cursor: block index in the code image *)
  mutable findex : int;  (** cursor: instruction index; the block's
                             instruction count denotes its terminator *)
  mutable frame_base : int;
  mutable ret_slot : int;  (** address of this frame's return-address word; 0 for entry *)
  mutable fdst : int;  (** offset of the caller slot receiving the return value, or -1 *)
  mutable callsite : int;
      (** code address of the call this frame has in flight, 0 before
          its first call *)
  args : Args.t;  (** that call's arguments: this depth's argument file *)
}

type stats = {
  mutable instrs : int;
  mutable calls : int;
  mutable indirect_calls : int;
  mutable rets : int;
  mutable syscalls : int;
  mutable cycles : int;
}

let stats_create () =
  { instrs = 0; calls = 0; indirect_calls = 0; rets = 0; syscalls = 0; cycles = 0 }

type config = { cet : bool; cost : Cost.t; fuel : int }

let default_config = { cet = false; cost = Cost.default; fuel = 500_000_000 }

type t = {
  prog : Sil.Prog.t;
  layout : Layout.t;  (** [prog]'s code image, which machines may share *)
  mem : Memory.t;
  config : config;
  stats : stats;
  shadow_stack : Cet.Shadow_stack.t;
  rodata : (string, int64) Hashtbl.t;  (** interned strings *)
  mutable rodata_next : int64;
  literal_addrs : int array;  (** literal id -> rodata address, 0 until first evaluated *)
  mutable sp : int;
  mutable brk : int64;
  mutable stack : frame array;  (** frame records by depth, outermost first *)
  mutable depth : int;  (** live frames: [stack.(depth - 1)] is the innermost *)
  mutable trap_rip : int;  (** code address of the most recent call instr *)
  mutable on_syscall : (t -> sysno:int -> args:Args.t -> int64) option;
  mutable on_intrinsic : (t -> name:string -> args:Args.t -> int64) option;
  mutable on_indirect_call :
    (t -> callsite:Sil.Loc.t -> target:int64 -> resolved:string option -> unit) option;
  mutable on_instr : (t -> Sil.Loc.t -> unit) option;
}

let charge (t : t) n = t.stats.cycles <- t.stats.cycles + n

(* ------------------------------------------------------------------ *)
(* Creation and data initialisation                                    *)

(** Intern a string in rodata; idempotent per content.  Addresses are
    handed out in first-interning order, so they are this machine's. *)
let intern_string (t : t) s =
  match Hashtbl.find_opt t.rodata s with
  | Some a -> a
  | None ->
    let addr = t.rodata_next in
    let words = Memory.write_string t.mem addr s in
    t.rodata_next <- Int64.add addr (Int64.of_int (8 * (words + 1)));
    Hashtbl.replace t.rodata s addr;
    addr

let init_globals (t : t) =
  List.iter
    (fun (g : Sil.Prog.global) ->
      let addr = Layout.global_addr t.layout g.gname in
      match g.ginit with
      | Zero -> ()
      | Word v -> Memory.write t.mem addr v
      | Words ws -> Memory.write_block t.mem addr (Array.of_list ws)
      | Str s -> Memory.write t.mem addr (intern_string t s)
      | Fptr f -> Memory.write t.mem addr (Layout.func_entry t.layout f))
    t.prog.globals

let create ?(config = default_config) ?layout (prog : Sil.Prog.t) : t =
  let layout =
    match layout with
    | None -> Layout.build prog
    | Some l when Layout.program l == prog -> l
    | Some _ -> invalid_arg "Machine.create: the layout belongs to another program"
  in
  let t =
    {
      prog;
      layout;
      mem = Memory.create ();
      config;
      stats = stats_create ();
      shadow_stack = Cet.Shadow_stack.create ();
      rodata = Hashtbl.create 64;
      rodata_next = Layout.rodata_base;
      literal_addrs = Array.make (Layout.literals layout) 0;
      sp = Int64.to_int Layout.stack_base;
      brk = Layout.heap_base;
      stack = [||];
      depth = 0;
      trap_rip = 0;
      on_syscall = None;
      on_intrinsic = None;
      on_indirect_call = None;
      on_instr = None;
    }
  in
  init_globals t;
  t

(* ------------------------------------------------------------------ *)
(* Evaluation over the code image.  Slots resolve against the frame
   executing the instruction, whose function is the one the
   instruction was decoded in.  Where an expression reads several
   operands they are evaluated in the order the tree-walking
   interpreter used, which fixes the order string literals are interned
   in rodata.

   [eval], [place_addr] and [eval_rvalue] are inlined into [step], so a
   word goes from the memory table to its destination without being
   boxed.  That needs every arm of their matches to compute a fresh
   number or raise: an arm that returns an existing box ([fresh] below
   recomputes one) or calls a function that is not inlined keeps the
   whole match boxed. *)

let[@inline] slot_addr (frame : frame) off = Int64.of_int (frame.frame_base + (8 * off))

(* [n], computed afresh rather than returned as the box it came in. *)
let[@inline] fresh (n : int64) = Int64.add n 0L

(* First evaluation of a literal on this machine: intern it in rodata. *)
let intern_literal (t : t) (l : Layout.literal) =
  t.literal_addrs.(l.id) <- Int64.to_int (intern_string t l.text)

let[@inline] eval (t : t) (frame : frame) (op : Layout.operand) : int64 =
  match op with
  | Imm n -> fresh n
  | Slot off -> Memory.read t.mem (slot_addr frame off)
  | Word_at a -> Memory.read t.mem a
  | Lit l ->
    if t.literal_addrs.(l.id) = 0 then intern_literal t l;
    Int64.of_int t.literal_addrs.(l.id)
  | Unresolved msg -> raise (Invalid_argument msg)

(* An unresolved place still evaluates its operands before it fails. *)
let eval_operands (t : t) (frame : frame) ops = List.iter (fun op -> ignore (eval t frame op)) ops

let[@inline] place_addr (t : t) (frame : frame) (p : Layout.place) : int64 =
  match p with
  | Pslot off -> slot_addr frame off
  | Pabs a -> fresh a
  | Pfield (base, off) -> Memory.addr_add (eval t frame base) off
  | Pindex (base, index, size) ->
    let b = eval t frame base in
    let i = Int64.to_int (eval t frame index) in
    Memory.addr_add b (i * size)
  | Pderef p -> eval t frame p
  | Punresolved (ops, msg) ->
    eval_operands t frame ops;
    raise (Invalid_argument msg)

let[@inline] eval_rvalue (t : t) (frame : frame) (rv : Layout.rvalue) : int64 =
  match rv with
  | Use op -> eval t frame op
  | Load p -> Memory.read t.mem (place_addr t frame p)
  | Addr_of p -> place_addr t frame p
  | Binop (op, a, b) ->
    let vb = eval t frame b in
    Sil.Instr.eval_binop op (eval t frame a) vb

(* ------------------------------------------------------------------ *)
(* Frames

   The record at depth [d] serves every call that runs at that depth, so
   a call and its return write only integer fields and unboxed words:
   no frame, list cell or argument array is allocated per call.  A
   depth's record and argument file are made when the stack first
   reaches it. *)

let grow_stack (t : t) =
  let n = Array.length t.stack in
  let capacity = Layout.max_args t.layout in
  t.stack <-
    Array.init (max 16 (2 * n)) (fun d ->
        if d < n then t.stack.(d)
        else
          { fblock = 0; findex = 0; frame_base = 0; ret_slot = 0; fdst = -1; callsite = 0;
            args = Args.create capacity })

(* Reserve a frame for [callee] below [t.sp] and make it current. *)
let enter (t : t) (callee : Layout.func) ~ret_slot ~fdst =
  if callee.entry_block < 0 then
    invalid_arg (Printf.sprintf "Func.entry_block: %s has no blocks" callee.name);
  t.sp <- t.sp - (8 * callee.frame_words);
  if t.depth = Array.length t.stack then grow_stack t;
  let frame = t.stack.(t.depth) in
  frame.fblock <- callee.entry_block;
  frame.findex <- 0;
  frame.frame_base <- t.sp;
  frame.ret_slot <- ret_slot;
  frame.fdst <- fdst;
  frame.callsite <- 0;
  frame.args.len <- 0;
  t.depth <- t.depth + 1;
  frame

(* Push the return token, enter [callee] and copy the caller's
   argument file into its parameter slots. *)
let push_frame (t : t) ~(callee : Layout.func) ~(args : Args.t) ~ret_token ~fdst =
  t.sp <- t.sp - 8;
  let ret_slot = t.sp in
  let token = Int64.of_int ret_token in
  Memory.write t.mem (Int64.of_int ret_slot) token;
  (* The CET push rides the call micro-ops for free; only the
     return-side compare costs a cycle. *)
  if t.config.cet then Cet.Shadow_stack.push t.shadow_stack token;
  let frame = enter t callee ~ret_slot ~fdst in
  for i = 0 to min (Array.length callee.params) args.len - 1 do
    Memory.write t.mem (slot_addr frame callee.params.(i)) (Args.get64 args.words (i lsl 3))
  done

exception Program_exit of int64

(* Inlined into [exec_terminator], so the return value is never boxed. *)
let[@inline] pop_frame (t : t) (ret_val : int64) =
  if t.depth = 0 then raise (Program_exit ret_val);
  let frame = t.stack.(t.depth - 1) in
  t.stats.rets <- t.stats.rets + 1;
  charge t t.config.cost.ret;
  if frame.ret_slot = 0 then raise (Program_exit ret_val);
  let token = Memory.read t.mem (Int64.of_int frame.ret_slot) in
  if t.config.cet then begin
    charge t t.config.cost.cet_op;
    Cet.Shadow_stack.pop_check t.shadow_stack ~actual:token
  end;
  t.depth <- t.depth - 1;
  t.sp <- frame.ret_slot + 8;
  (* Only the entry frame has no return slot, so a caller is live. *)
  let caller = t.stack.(t.depth - 1) in
  (* Deliver the return value into the caller's destination slot,
     resolved against the function that made the call (which the
     caller frame is still running: only this return can pivot it). *)
  if frame.fdst >= 0 then Memory.write t.mem (slot_addr caller frame.fdst) ret_val;
  (* Transfer control to the (possibly corrupted) return token.  The
     caller's own resume point is where its cursor already stands: the
     call advanced it past the call instruction. *)
  if token <> Int64.of_int (caller.callsite + 8) then
    match Layout.point_index t.layout token with
    | -1 -> raise (Killed (Bad_return_target { target = token }))
    | p ->
      (* A token pointing into another function models a ROP pivot:
         the gadget executes with the attacker-controlled stack.  A
         terminator's point resumes at that terminator. *)
      let image = Layout.image t.layout in
      let b = image.point_block.(p) in
      caller.fblock <- b;
      caller.findex <- p - image.blocks.(b).first_point

(* ------------------------------------------------------------------ *)
(* Built-in intrinsics                                                 *)

(** Bump-allocate [words] words of heap; used by the malloc intrinsic and
    by the kernel's mmap implementation. *)
let alloc_heap (t : t) words =
  let addr = t.brk in
  t.brk <- Int64.add t.brk (Int64.of_int (8 * max 1 words));
  addr

let run_intrinsic (t : t) name (args : Args.t) : int64 =
  match name with
  | "malloc" ->
    let words = if args.len > 0 then Args.get_int args 0 else 1 in
    alloc_heap t words
  | _ -> (
    match t.on_intrinsic with
    | Some h -> h t ~name ~args
    | None -> 0L)

(* ------------------------------------------------------------------ *)
(* The interpreter                                                     *)

let write_dst (t : t) frame dst result =
  match dst with Some p -> Memory.write t.mem (place_addr t frame p) result | None -> ()

(* The arguments go into the calling frame's argument file, where the
   hooks read them and a callee's parameters are copied from. *)
let exec_call (t : t) (frame : frame) (blk : Layout.block) idx (c : Layout.call) =
  let args = frame.args in
  for i = 0 to Array.length c.args - 1 do
    Args.set64 args.words (i lsl 3) (eval t frame c.args.(i))
  done;
  args.len <- Array.length c.args;
  let callsite = Int64.to_int blk.base + (8 * idx) in
  t.trap_rip <- callsite;
  frame.callsite <- callsite;
  t.stats.calls <- t.stats.calls + 1;
  let fi =
    match c.target with
    | Direct fi -> fi
    | Unknown_callee name -> invalid_arg (Layout.callee_missing name)
    | Indirect op ->
      t.stats.indirect_calls <- t.stats.indirect_calls + 1;
      let addr = eval t frame op in
      let fi = Layout.entry_func t.layout addr in
      (match t.on_indirect_call with
      | Some h ->
        let resolved = if fi < 0 then None else Some (Layout.image t.layout).funcs.(fi).name in
        h t ~callsite:(Layout.loc_at t.layout blk idx) ~target:addr ~resolved
      | None -> ());
      if fi < 0 then
        raise
          (Killed
             (Bad_indirect_target { callsite = Layout.loc_at t.layout blk idx; target = addr }));
      fi
  in
  let callee = (Layout.image t.layout).funcs.(fi) in
  (* Intrinsics are inlined runtime-library snippets: they cost their
     body, not a call.  Real calls and syscalls pay the call overhead. *)
  match callee.kind with
  | Syscall_stub sysno ->
    charge t t.config.cost.call;
    t.stats.syscalls <- t.stats.syscalls + 1;
    let result =
      match t.on_syscall with
      | Some h -> h t ~sysno ~args
      | None -> 0L
    in
    write_dst t frame c.dst result;
    frame.findex <- frame.findex + 1
  | Intrinsic name ->
    charge t t.config.cost.intrinsic;
    let result = run_intrinsic t name args in
    write_dst t frame c.dst result;
    frame.findex <- frame.findex + 1
  | App_code ->
    charge t t.config.cost.call;
    (* Execution resumes at the next code point: the following
       instruction, or the block's terminator after the last one.
       Advance the caller before pushing, so the cursor is correct if
       the callee is re-entered recursively. *)
    frame.findex <- idx + 1;
    let fdst = match c.dst with Some (Pslot off) -> off | Some _ | None -> -1 in
    push_frame t ~callee ~args ~ret_token:(callsite + 8) ~fdst

let exec_terminator (t : t) (frame : frame) (term : Layout.term) =
  match term with
  | Jump b ->
    frame.fblock <- b;
    frame.findex <- 0
  | Branch (cond, b1, b2) ->
    let c = eval t frame cond in
    charge t t.config.cost.instr;
    frame.fblock <- (if c <> 0L then b1 else b2);
    frame.findex <- 0
  | Ret op ->
    let v = match op with Some op -> eval t frame op | None -> 0L in
    pop_frame t v
  | Halt -> raise (Program_exit 0L)
  | Missing_block msg -> invalid_arg msg

let step (t : t) (blocks : Layout.block array) =
  if t.depth = 0 then invalid_arg "Machine.top_frame: no frames";
  let frame = t.stack.(t.depth - 1) in
  let blk = blocks.(frame.fblock) in
  let idx = frame.findex in
  if idx >= Array.length blk.instrs then exec_terminator t frame blk.term
  else begin
    (match t.on_instr with Some h -> h t (Layout.loc_at t.layout blk idx) | None -> ());
    t.stats.instrs <- t.stats.instrs + 1;
    match blk.instrs.(idx) with
    | Assign (dst, rv) ->
      charge t t.config.cost.instr;
      let v = eval_rvalue t frame rv in
      Memory.write t.mem (place_addr t frame dst) v;
      frame.findex <- idx + 1
    | Store (p, op) ->
      charge t t.config.cost.instr;
      let v = eval t frame op in
      Memory.write t.mem (place_addr t frame p) v;
      frame.findex <- idx + 1
    | Call c -> exec_call t frame blk idx c
  end

(** Run the program from its entry point to completion. *)
let run (t : t) : outcome =
  let entry =
    match Layout.find_func t.layout t.prog.entry with
    | Some fi -> (Layout.image t.layout).funcs.(fi)
    | None -> invalid_arg ("Prog.find_func: unknown function " ^ t.prog.entry)
  in
  t.sp <- Int64.to_int Layout.stack_base;
  t.depth <- 0;
  ignore (enter t entry ~ret_slot:0 ~fdst:(-1));
  let blocks = (Layout.image t.layout).blocks in
  let budget = ref t.config.fuel in
  try
    let rec loop () =
      if !budget <= 0 then raise (Killed Fuel_exhausted);
      decr budget;
      step t blocks;
      loop ()
    in
    loop ()
  with
  | Program_exit v -> Exited v
  | Killed fault -> Faulted fault
  | Cet.Shadow_stack.Violation { expected; actual } ->
    Faulted (Cet_violation { expected; actual })
  | Cet.Shadow_stack.Underflow -> Faulted (Cet_violation { expected = 0L; actual = 0L })

(* ------------------------------------------------------------------ *)
(* Introspection used by the kernel's ptrace layer and by attacks      *)

(* The [i]-th live frame, innermost first. *)
let frame_at (t : t) i = t.stack.(t.depth - 1 - i)

(** Live frames, innermost first. *)
let frames (t : t) = List.init t.depth (frame_at t)

let frame_fidx (t : t) (frame : frame) = (Layout.image t.layout).blocks.(frame.fblock).owner

let call_args (t : t) = if t.depth = 0 then Args.create 0 else t.stack.(t.depth - 1).args

(** The frame's *memory-resident* return address (reading it reflects
    any corruption). *)
let read_ret_addr (t : t) (frame : frame) =
  if frame.ret_slot = 0 then None else Some (Memory.read t.mem (Int64.of_int frame.ret_slot))

let peek (t : t) addr = Memory.read t.mem addr
let poke (t : t) addr v = Memory.write t.mem addr v
let read_string (t : t) addr = Memory.read_string t.mem addr

let global_address (t : t) name = Layout.global_addr t.layout name
let function_address (t : t) name = Layout.func_entry t.layout name
let instr_address (t : t) loc = Layout.addr_of_loc t.layout loc

(** Address of a local variable of a live frame, searching innermost
    frames first.  Used by attack scripts to corrupt specific variables. *)
let local_address (t : t) ~func ~var =
  let rec find i =
    if i >= t.depth then None
    else
      let f = frame_at t i in
      let fi = frame_fidx t f in
      if String.equal (Layout.image t.layout).funcs.(fi).name func then
        let fn = Sil.Prog.find_func t.prog func in
        let v =
          List.find_opt
            (fun ((v : Sil.Operand.var), _) -> String.equal v.vname var)
            (Sil.Func.all_vars fn)
        in
        match v with
        | Some (v, _) ->
          Some (Int64.of_int (f.frame_base + (8 * Layout.var_offset t.layout func v.vid)))
        | None -> find (i + 1)
      else find (i + 1)
  in
  find 0
