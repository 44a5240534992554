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

type frame = {
  mutable ffunc : string;
  mutable fblock : int;  (** cursor: block index in the code image *)
  mutable findex : int;  (** cursor: instruction index; the block's
                             instruction count denotes its terminator *)
  frame_base : int64;
  ret_slot : int64;  (** address of this frame's return-address word; 0 for entry *)
  fdst : int;  (** offset of the caller slot receiving the return value, or -1 *)
  mutable in_flight_args : int64 array;
      (** evaluated arguments of the call this frame currently has in
          flight (the "argument registers" at that callsite) *)
  mutable in_flight_callsite : int64;  (** code address of that call instr *)
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
  layout : Layout.t;
  mem : Memory.t;
  config : config;
  stats : stats;
  shadow_stack : Cet.Shadow_stack.t;
  mutable sp : int64;
  mutable brk : int64;
  mutable frames : frame list;  (** top of stack first *)
  mutable abi_regs : int64 array;  (** args of the most recent call *)
  mutable trap_rip : int64;  (** code address of the most recent call instr *)
  mutable on_syscall : (t -> sysno:int -> args:int64 array -> int64) option;
  mutable on_intrinsic : (t -> name:string -> args:int64 array -> int64) option;
  mutable on_indirect_call :
    (t -> callsite:Sil.Loc.t -> target:int64 -> resolved:string option -> unit) option;
  mutable on_instr : (t -> Sil.Loc.t -> unit) option;
}

let charge (t : t) n = t.stats.cycles <- t.stats.cycles + n

(* ------------------------------------------------------------------ *)
(* Creation and data initialisation                                    *)

let init_globals (t : t) =
  List.iter
    (fun (g : Sil.Prog.global) ->
      let addr = Layout.global_addr t.layout g.gname in
      match g.ginit with
      | Zero -> ()
      | Word v -> Memory.write t.mem addr v
      | Words ws -> Memory.write_block t.mem addr (Array.of_list ws)
      | Str s ->
        let saddr = Layout.intern_string t.layout t.mem s in
        Memory.write t.mem addr saddr
      | Fptr f -> Memory.write t.mem addr (Layout.func_entry t.layout f))
    t.prog.globals

let create ?(config = default_config) (prog : Sil.Prog.t) : t =
  let layout = Layout.build prog in
  let t =
    {
      prog;
      layout;
      mem = Memory.create ();
      config;
      stats = stats_create ();
      shadow_stack = Cet.Shadow_stack.create ();
      sp = Layout.stack_base;
      brk = Layout.heap_base;
      frames = [];
      abi_regs = [||];
      trap_rip = 0L;
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

let[@inline] slot_addr (frame : frame) off = Memory.addr_add frame.frame_base off

(* [n], computed afresh rather than returned as the box it came in. *)
let[@inline] fresh (n : int64) = Int64.add n 0L

(* First evaluation of a literal: intern it in rodata. *)
let intern_literal (t : t) (l : Layout.literal) =
  l.interned <- Layout.intern_string t.layout t.mem l.text

let[@inline] eval (t : t) (frame : frame) (op : Layout.operand) : int64 =
  match op with
  | Imm n -> fresh n
  | Slot off -> Memory.read t.mem (slot_addr frame off)
  | Word_at a -> Memory.read t.mem a
  | Lit l ->
    if Int64.equal l.interned 0L then intern_literal t l;
    fresh l.interned
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
(* Frames                                                              *)

(* Reserve a frame for [callee] below [t.sp] and make it current. *)
let enter (t : t) (callee : Layout.func) ~ret_slot ~fdst =
  if callee.entry_block < 0 then
    invalid_arg (Printf.sprintf "Func.entry_block: %s has no blocks" callee.name);
  t.sp <- Int64.sub t.sp (Int64.of_int (8 * callee.frame_words));
  let frame =
    {
      ffunc = callee.name;
      fblock = callee.entry_block;
      findex = 0;
      frame_base = t.sp;
      ret_slot;
      fdst;
      in_flight_args = [||];
      in_flight_callsite = 0L;
    }
  in
  t.frames <- frame :: t.frames;
  frame

let push_frame (t : t) ~(callee : Layout.func) ~(args : int64 array) ~(ret_token : int64)
    ~fdst =
  t.sp <- Int64.sub t.sp 8L;
  let ret_slot = t.sp in
  Memory.write t.mem ret_slot ret_token;
  (* The CET push rides the call micro-ops for free; only the
     return-side compare costs a cycle. *)
  if t.config.cet then Cet.Shadow_stack.push t.shadow_stack ret_token;
  let frame = enter t callee ~ret_slot ~fdst in
  (* Copy arguments into parameter slots. *)
  for i = 0 to min (Array.length callee.params) (Array.length args) - 1 do
    Memory.write t.mem (slot_addr frame callee.params.(i)) args.(i)
  done

exception Program_exit of int64

let pop_frame (t : t) (ret_val : int64) =
  match t.frames with
  | [] -> raise (Program_exit ret_val)
  | frame :: rest ->
    t.stats.rets <- t.stats.rets + 1;
    charge t t.config.cost.ret;
    if Int64.equal frame.ret_slot 0L then raise (Program_exit ret_val);
    let token = Memory.read t.mem frame.ret_slot in
    if t.config.cet then begin
      charge t t.config.cost.cet_op;
      Cet.Shadow_stack.pop_check t.shadow_stack ~actual:token
    end;
    t.frames <- rest;
    t.sp <- Int64.add frame.ret_slot 8L;
    (* Deliver the return value into the caller's destination slot,
       resolved against the function that made the call (which the
       caller frame is still running: only this return can pivot it). *)
    (match rest with
    | caller :: _ when frame.fdst >= 0 -> Memory.write t.mem (slot_addr caller frame.fdst) ret_val
    | _ -> ());
    (* Transfer control to the (possibly corrupted) return token. *)
    match Layout.point_index t.layout token with
    | -1 -> raise (Killed (Bad_return_target { target = token }))
    | p -> (
      match rest with
      | caller :: _ ->
        (* A token pointing into another function models a ROP pivot:
           the gadget executes with the attacker-controlled stack.  A
           terminator's point resumes at that terminator. *)
        let image = Layout.image t.layout in
        let b = image.point_block.(p) in
        let blk = image.blocks.(b) in
        caller.ffunc <- image.funcs.(blk.owner).name;
        caller.fblock <- b;
        caller.findex <- p - blk.first_point
      | [] -> raise (Program_exit ret_val))

(* ------------------------------------------------------------------ *)
(* Built-in intrinsics                                                 *)

(** Bump-allocate [words] words of heap; used by the malloc intrinsic and
    by the kernel's mmap implementation. *)
let alloc_heap (t : t) words =
  let addr = t.brk in
  t.brk <- Int64.add t.brk (Int64.of_int (8 * max 1 words));
  addr

let run_intrinsic (t : t) name (args : int64 array) : int64 =
  match name with
  | "malloc" ->
    let words = if Array.length args > 0 then Int64.to_int args.(0) else 1 in
    alloc_heap t words
  | _ -> (
    match t.on_intrinsic with
    | Some h -> h t ~name ~args
    | None -> 0L)

(* ------------------------------------------------------------------ *)
(* The interpreter                                                     *)

let write_dst (t : t) frame dst result =
  match dst with Some p -> Memory.write t.mem (place_addr t frame p) result | None -> ()

let exec_call (t : t) (frame : frame) (blk : Layout.block) idx (c : Layout.call) =
  let argv = Array.make (Array.length c.args) 0L in
  for i = 0 to Array.length argv - 1 do
    argv.(i) <- eval t frame c.args.(i)
  done;
  let callsite_addr = Int64.add blk.base (Int64.of_int (8 * idx)) in
  t.abi_regs <- argv;
  t.trap_rip <- callsite_addr;
  frame.in_flight_args <- argv;
  frame.in_flight_callsite <- callsite_addr;
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
        h t ~callsite:blk.locs.(idx) ~target:addr ~resolved
      | None -> ());
      if fi < 0 then
        raise (Killed (Bad_indirect_target { callsite = blk.locs.(idx); target = addr }));
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
      | Some h -> h t ~sysno ~args:argv
      | None -> 0L
    in
    write_dst t frame c.dst result;
    frame.findex <- frame.findex + 1
  | Intrinsic name ->
    charge t t.config.cost.intrinsic;
    let result = run_intrinsic t name argv in
    write_dst t frame c.dst result;
    frame.findex <- frame.findex + 1
  | App_code ->
    charge t t.config.cost.call;
    (* Execution resumes at the next code point: the following
       instruction, or the block's terminator after the last one.
       Advance the caller before pushing, so the cursor is correct if
       the callee is re-entered recursively. *)
    let token = Int64.add callsite_addr 8L in
    frame.findex <- idx + 1;
    let fdst = match c.dst with Some (Pslot off) -> off | Some _ | None -> -1 in
    push_frame t ~callee ~args:argv ~ret_token:token ~fdst

let exec_terminator (t : t) (frame : frame) (term : Layout.term) =
  match term with
  | Jump b ->
    frame.fblock <- b;
    frame.findex <- 0
  | Branch (cond, b1, b2) ->
    let c = eval t frame cond in
    charge t t.config.cost.instr;
    frame.fblock <- (if not (Int64.equal c 0L) then b1 else b2);
    frame.findex <- 0
  | Ret op ->
    let v = match op with Some op -> eval t frame op | None -> 0L in
    pop_frame t v
  | Halt -> raise (Program_exit 0L)
  | Missing_block msg -> invalid_arg msg

let step (t : t) (blocks : Layout.block array) =
  let frame = match t.frames with f :: _ -> f | [] -> invalid_arg "Machine.top_frame: no frames" in
  let blk = blocks.(frame.fblock) in
  let idx = frame.findex in
  if idx >= Array.length blk.instrs then exec_terminator t frame blk.term
  else begin
    (match t.on_instr with Some h -> h t blk.locs.(idx) | None -> ());
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
  t.sp <- Layout.stack_base;
  t.frames <- [];
  ignore (enter t entry ~ret_slot:0L ~fdst:(-1));
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

(** Stack frames, innermost first, with the *memory-resident* return
    address of each (reading it reflects any corruption). *)
let frames (t : t) = t.frames

let read_ret_addr (t : t) (frame : frame) =
  if Int64.equal frame.ret_slot 0L then None
  else Some (Memory.read t.mem frame.ret_slot)

let peek (t : t) addr = Memory.read t.mem addr
let poke (t : t) addr v = Memory.write t.mem addr v
let read_string (t : t) addr = Memory.read_string t.mem addr

let global_address (t : t) name = Layout.global_addr t.layout name
let function_address (t : t) name = Layout.func_entry t.layout name
let instr_address (t : t) loc = Layout.addr_of_loc t.layout loc

(** Address of a local variable of a live frame, searching innermost
    frames first.  Used by attack scripts to corrupt specific variables. *)
let local_address (t : t) ~func ~var =
  let rec find = function
    | [] -> None
    | (f : frame) :: rest ->
      if String.equal f.ffunc func then
        let fn = Sil.Prog.find_func t.prog func in
        let v =
          List.find_opt
            (fun ((v : Sil.Operand.var), _) -> String.equal v.vname var)
            (Sil.Func.all_vars fn)
        in
        match v with
        | Some (v, _) ->
          Some (Memory.addr_add f.frame_base (Layout.var_offset t.layout f.ffunc v.vid))
        | None -> find rest
      else find rest
  in
  find t.frames
