(* The BASTION runtime monitor (§7): a separate process that traps on
   sensitive syscall invocations (seccomp TRACE) and verifies the three
   contexts against compiler metadata before letting the call proceed.

   Enforcement order follows §7.2-§7.4: Call-Type, then Control-Flow,
   then Argument-Integrity; a violation kills the protected application.
   Every inspection of the tracee charges ptrace-modelled cycle costs. *)

module Ptrace = Kernel.Ptrace
module Process = Kernel.Process
module Syscalls = Kernel.Syscalls

type contexts = { ct : bool; cf : bool; ai : bool }

let all_contexts = { ct = true; cf = true; ai = true }
let no_contexts = { ct = false; cf = false; ai = false }

(** How the §11.2 filesystem-syscall extension is deployed (Table 7). *)
type fs_mode =
  | Fs_off          (** main evaluation: fs syscalls simply allowed *)
  | Fs_hook_only    (** row 1: seccomp evaluates, no trap *)
  | Fs_fetch_only   (** row 2: trap + fetch process state, no checking *)
  | Fs_full         (** row 3: trap + full context checking *)

type config = {
  contexts : contexts;
  fs_mode : fs_mode;
  sockaddr_fastpath : bool;
  trap_cache : bool;
  taint_cheap_path : bool;
      (** verify ranked-untainted AI slots through the single-probe
          cheap recipe instead of the binding+shadow pair; inert on
          bundles without slot ranks *)
}

let default_config =
  { contexts = all_contexts; fs_mode = Fs_off; sockaddr_fastpath = true;
    trap_cache = true; taint_cheap_path = true }

type denial = { d_sysno : int; d_context : string; d_detail : string }

(** Where a trap's register file and stack snapshot come from.  The
    live source reads the stopped tracee over ptrace; the replay engine
    substitutes a source that hands back *recorded* inputs (charging
    identical modelled costs), so the same verification code re-judges
    a trace offline. *)
type trap_source = {
  ts_regs : Ptrace.t -> Ptrace.regs;
  ts_snapshot : Ptrace.t -> span_words:int array -> Ptrace.snapshot;
}

let live_source = { ts_regs = Ptrace.getregs; ts_snapshot = Ptrace.snapshot }

(* ------------------------------------------------------------------ *)
(* The check image                                                     *)

(* [decode] turns the deployed metadata, once per deployment, into
   arrays the per-trap checks index by integer: traced callsites by
   code point, functions by their code-image index, checked globals by
   position.  Every per-position decision the metadata fixes — the
   pre-resolved constant, the per-caller constants, the taint rank and
   its cheap recipe, the syscall's direct/extended/sockaddr rule, the
   binding key, each function's verdict-cache name hash — is taken
   here rather than on every trap.  The image does not depend on the
   monitor configuration and nothing in it is written after [decode],
   so every session of a deployment, on any domain, reads the same
   one.  Two checks read the configuration where they use the image:
   the cheap recipe ([taint_cheap_path]) and the one-read sockaddr
   check ([sockaddr_fastpath]). *)

(** How one argument value of a traced callsite is verified. *)
type value_check =
  | Const of int64  (** [Spec_const]: the value must equal it *)
  | Pre of int64  (** pre-resolved [Spec_mem] slot: the static constant *)
  | Mem of mem_check  (** any other [Spec_mem] slot *)

and mem_check = {
  ctx_callers : int array;
      (** callsite ids of the callers with a per-caller constant ... *)
  ctx_values : int64 array;  (** ... and those constants *)
  rank : bool option;  (** taint rank: [Some true] = attacker-reachable *)
  cheap : Metadata.cheap_recipe option;
      (** the single-probe recipe, when the slot is ranked untainted;
          used when the cheap path is enabled *)
  binding : int64;  (** binding-table key of (callsite, position) *)
}

(** What the syscall's argument rule (§6.3.2) adds for a non-NULL
    value, recovered from the syscall identity, not instrumented. *)
type pointee =
  | Value_only
  | Sockaddr
      (** accept/accept4's address: one fixed-size read with the sockaddr
          fast path, else checked like [Contents] *)
  | Contents  (** verify the pointee contents word by word *)

type arg_plan = { pos : int; check : value_check; pointee : pointee }

type site = {
  entry : Metadata.cs_entry;
  plan : arg_plan array;  (** [e_specs], in order *)
}

type image = {
  sites : site array;
  site_table : int array;
      (** [sites] by code point: open addressing, at most half full;
          slot [i] holds a point at [2 i] (-1 when empty) and the index
          of its site at [2 i + 1] *)
  slots : int array array;
      (** by function: word offsets of its sensitive locals, metadata order *)
  span_lo : int array;  (** by function: first word of its slot span *)
  span_words : int array;  (** by function: its slot span in words, 0 if none *)
  names : Verdict_cache.names;  (** by function: its name hash *)
  global_names : string array;  (** checked globals, metadata order *)
  global_addrs : int64 array;
  global_words : int array;
}

let decode_plan (e : Metadata.cs_entry) =
  let arg (pos, spec) =
    let check =
      match (spec : Metadata.arg_spec) with
      | Spec_const c -> Const c
      | Spec_mem -> (
        match List.assoc_opt pos e.e_pre with
        | Some c -> Pre c
        | None ->
          let alts = Option.value ~default:[] (List.assoc_opt pos e.e_pre_ctx) in
          let rank = List.assoc_opt pos e.e_ranks in
          Mem
            {
              ctx_callers = Array.of_list (List.map fst alts);
              ctx_values = Array.of_list (List.map snd alts);
              rank;
              cheap = (if rank = Some false then List.assoc_opt pos e.e_cheap else None);
              binding = Shadow_memory.binding_key ~id:e.e_id ~pos;
            })
    in
    let pointee =
      match e.e_sysno with
      | None -> Value_only
      | Some nr -> (
        match Arg_rules.kind ~sysno:nr ~pos with
        | Arg_rules.Direct -> Value_only
        | Arg_rules.Sockaddr -> Sockaddr
        | Arg_rules.Extended -> Contents)
    in
    { pos; check; pointee }
  in
  Array.of_list (List.map arg e.e_specs)

let decode (meta : Metadata.t) (layout : Machine.Layout.t) : image =
  let code = Machine.Layout.image layout in
  let entries = Hashtbl.fold (fun addr e acc -> (addr, e) :: acc) meta.cs_by_addr [] in
  let sites =
    Array.of_list (List.map (fun (_, e) -> { entry = e; plan = decode_plan e }) entries)
  in
  let rec pow2 n = if n >= 2 * Array.length sites then n else pow2 (2 * n) in
  let width = pow2 1 in
  let site_table = Array.make (2 * width) (-1) in
  List.iteri
    (fun k (addr, _) ->
      let p = Machine.Layout.point_index layout addr in
      let i = ref (p land (width - 1)) in
      while site_table.(2 * !i) >= 0 do
        i := (!i + 1) land (width - 1)
      done;
      site_table.(2 * !i) <- p;
      site_table.((2 * !i) + 1) <- k)
    entries;
  let nfuncs = Array.length code.funcs in
  let slots = Array.make nfuncs [||] in
  let span_lo = Array.make nfuncs 0 and span_words = Array.make nfuncs 0 in
  Hashtbl.iter
    (fun name offsets ->
      match (offsets, Machine.Layout.find_func layout name) with
      | first :: _, Some f ->
        let lo = List.fold_left min first offsets and hi = List.fold_left max first offsets in
        slots.(f) <- Array.of_list offsets;
        span_lo.(f) <- lo;
        span_words.(f) <- hi - lo + 1
      | [], _ | _, None -> ())
    meta.func_slots;
  let globals = Array.of_list meta.checked_globals in
  {
    sites;
    site_table;
    slots;
    span_lo;
    span_words;
    names =
      Verdict_cache.names (Array.map (fun (f : Machine.Layout.func) -> f.name) code.funcs);
    global_names = Array.map (fun (name, _, _) -> name) globals;
    global_addrs = Array.map (fun (_, addr, _) -> addr) globals;
    global_words = Array.map (fun (_, _, words) -> words) globals;
  }

type t = {
  meta : Metadata.t;
  image : image;  (** [meta], decoded for the per-trap checks; the deployment's *)
  runtime : Runtime.t;
  config : config;
  machine : Machine.t;
  cache : Verdict_cache.t;
  mutable recorder : Obs.Recorder.t option;
  mutable source : trap_source;
      (** trap-input source: live ptrace by default, recorded for replay *)
  mutable prefilter : Kernel.Seccomp.flow_automaton option;
      (** the deployed syscall-flow pre-filter, if any (tiered entry
          point: resolved calls never reach {!full_check}) *)
  mutable traps_checked : int;
  mutable init_cycles : int;
  mutable pre_resolved_hits : int;
      (** AI slots verified against a static constant (no shadow probe) *)
  mutable ctx_hits : int;
      (** AI slots verified against a per-caller constant (no probe) *)
  mutable ai_tainted : int;
      (** ranked slot verifications that took the full path (tainted) *)
  mutable ai_untainted : int;
      (** ranked slot verifications eligible for the cheap path *)
  mutable denials : denial list;
  mutable cur_tier : int;
      (** deepest {!Obs.Event.tier} rank engaged by the trap in flight
          (-1: none yet); folded into the event at {!obs_finish} *)
  (* §9.2 statistics: call-stack depth observed at each verified trap. *)
  mutable depth_total : int;
  mutable depth_min : int;
  mutable depth_max : int;
  mutable depth_samples : int;
}

exception Deny of string * string  (** context, detail *)

let create ?recorder ~(meta : Metadata.t) ~(image : image) ~(runtime : Runtime.t) ~config
    (machine : Machine.t) =
  (* Loading metadata: a linear pass over all entries (the paper reports
     10-20 ms; we report cycles in stats, not on the tracee's clock). *)
  let init_cycles = 40 * meta.entry_count in
  {
    meta;
    image;
    runtime;
    config;
    machine;
    cache = Verdict_cache.create ();
    recorder;
    source = live_source;
    prefilter = None;
    traps_checked = 0;
    init_cycles;
    pre_resolved_hits = 0;
    ctx_hits = 0;
    ai_tainted = 0;
    ai_untainted = 0;
    denials = [];
    cur_tier = -1;
    depth_total = 0;
    depth_min = max_int;
    depth_max = 0;
    depth_samples = 0;
  }

let set_recorder (t : t) r = t.recorder <- r

(* The index in [t.image.sites] of the traced callsite at a code
   address, or -1. *)
let site_at (t : t) addr =
  match Machine.Layout.point_index t.machine.layout addr with
  | -1 -> -1
  | p ->
    let table = t.image.site_table in
    let mask = (Array.length table / 2) - 1 in
    let i = ref (p land mask) in
    while table.(2 * !i) <> p && table.(2 * !i) >= 0 do
      i := (!i + 1) land mask
    done;
    if table.(2 * !i) = p then table.((2 * !i) + 1) else -1
let set_source (t : t) s = t.source <- s

let charge_check (t : t) = Machine.charge t.machine t.machine.config.cost.monitor_check

(* Resolution-tier tracking: each piece of machinery a trap engages
   notes its {!Obs.Event.tier_rank}; the trap's tier is the deepest
   note.  Pure bookkeeping — never charges modelled cycles, so cycle
   totals are identical with or without a recorder. *)
let note_tier (t : t) tier =
  let rank = Obs.Event.tier_rank tier in
  if rank > t.cur_tier then t.cur_tier <- rank

(* Shadow-memory access from the monitor side.  The shadow region is
   mapped *shared* between the application and the monitor (§7.1), so
   lookups are local probes, not remote reads: each one charges a check
   plus 2 cycles per probe.  [lookup_at] returns the slot holding the
   shadow copy of the word at [base + 8 off], or -1. *)
let charge_lookup (t : t) =
  Machine.charge t.machine
    (t.machine.config.cost.monitor_check + (2 * Shadow_memory.last_probes t.runtime.shadow))

let lookup_at (t : t) base off =
  let slot = Shadow_memory.find_at t.runtime.shadow base off in
  charge_lookup t;
  slot

(* The slot's shadow value differs from [actual]. *)
let[@inline] differs (t : t) slot actual =
  not (Int64.equal (Shadow_memory.value t.runtime.shadow slot) actual)

let in_rodata addr =
  addr >= Machine.Layout.rodata_base && addr < Machine.Layout.data_base

(* ------------------------------------------------------------------ *)
(* Call-Type context (§7.2)                                            *)

(* The calling convention at a code address is what decoding the call
   instruction there reveals: the code image holds it. *)
let call_at (t : t) addr = Machine.Layout.call_at t.machine.layout addr

(* The syscall a call enters, when its callee is a syscall stub. *)
let stub_sysno (t : t) (target : Machine.Layout.target) =
  match target with
  | Direct f -> (
    match (Machine.Layout.image t.machine.layout).funcs.(f).kind with
    | Sil.Func.Syscall_stub nr -> Some nr
    | App_code | Intrinsic _ -> None)
  | Unknown_callee _ | Indirect _ -> None

let check_call_type (t : t) (regs : Ptrace.regs) =
  charge_check t;
  let ct = Calltype.call_type t.meta.calltype regs.sysno in
  match call_at t regs.rip with
  | None -> raise (Deny ("call-type", "syscall invoked from unknown callsite"))
  | Some { target = (Direct _ | Unknown_callee _) as target; _ } ->
    if not ct.directly then
      raise
        (Deny
           ( "call-type",
             Printf.sprintf "%s is not directly-callable" (Syscalls.name regs.sysno) ));
    (* The decoded call instruction must actually name this syscall. *)
    if stub_sysno t target <> Some regs.sysno then
      raise (Deny ("call-type", "callsite does not match trapped syscall"))
  | Some { target = Indirect _; _ } ->
    if not ct.indirectly then
      raise
        (Deny
           ( "call-type",
             Printf.sprintf "%s is not indirectly-callable" (Syscalls.name regs.sysno) ))

(* ------------------------------------------------------------------ *)
(* Control-Flow context (§7.3)                                         *)

let loc_of_rip (t : t) (rip : int64) : Sil.Loc.t option =
  match Machine.Layout.point_of_addr t.machine.layout rip with
  | Some (Machine.Layout.Instr_at loc) -> Some loc
  | Some (Machine.Layout.Term_of _) | None -> None

let check_control_flow (t : t) (tracer : Ptrace.t) (regs : Ptrace.regs)
    (frames : Ptrace.frame_view list) =
  let syscall_loc =
    match loc_of_rip t regs.rip with
    | Some loc -> loc
    | None -> raise (Deny ("control-flow", "trap rip is not a call instruction"))
  in
  charge_check t;
  if not (Cfg_analysis.is_sensitive_callsite t.meta.cfg syscall_loc) then
    raise (Deny ("control-flow", "callsite is not in the CFG metadata"));
  (match frames with
  | top :: _ when String.equal top.fv_func syscall_loc.func -> ()
  | _ -> raise (Deny ("control-flow", "stack top does not match the trapping callsite")));
  (* Unwind callee -> caller pairs until main or an indirect callsite. *)
  let rec walk = function
    | [] -> ()
    | (inner : Ptrace.frame_view) :: rest -> (
      charge_check t;
      match inner.fv_ret_token with
      | None ->
        (* Bottom of the stack: the frame with no caller must be the
           program entry point; anything else is a pivoted stack. *)
        if not (String.equal inner.fv_func t.machine.prog.entry) then
          raise
            (Deny
               ( "control-flow",
                 Printf.sprintf "stack bottoms out in %s, not in %s" inner.fv_func
                   t.machine.prog.entry ))
      | Some token -> (
        match Ptrace.callsite_of_token tracer token with
        | None ->
          raise (Deny ("control-flow", "return address does not map to a callsite"))
        | Some caller_site -> (
          (match rest with
          | outer :: _ when String.equal caller_site.func outer.fv_func -> ()
          | _ ->
            raise
              (Deny ("control-flow", "unwound caller does not match the next frame")));
          let caller_addr = Machine.Layout.addr_of_loc t.machine.layout caller_site in
          match call_at t caller_addr with
          | Some { target = Indirect _; _ } ->
            (* A legitimate indirect callsite ends verification: the
               partial trace up to here matched the expected one. *)
            if
              Calltype.is_legit_indirect_callsite t.meta.calltype caller_site
              && Calltype.is_indirect_target t.meta.calltype inner.fv_func
            then ()
            else
              raise
                (Deny ("control-flow", "illegitimate indirect call on the stack"))
          | Some { target = Direct _ | Unknown_callee _; _ } ->
            if
              Cfg_analysis.is_valid_caller t.meta.cfg ~callee:inner.fv_func
                ~caller_site
            then walk rest
            else
              raise
                (Deny
                   ( "control-flow",
                     Printf.sprintf "%s is not a valid caller of %s"
                       (Sil.Loc.to_string caller_site) inner.fv_func ))
          | None ->
            raise (Deny ("control-flow", "unwound return site is not a callsite")))))
  in
  walk frames

(* ------------------------------------------------------------------ *)
(* Argument-Integrity context (§7.4)                                   *)

let deny_ai detail = raise (Deny ("argument-integrity", detail))

let deny_corrupted pos (site : site) legit actual =
  deny_ai
    (Printf.sprintf "argument %d of %s corrupted (expected %Ld, got %Ld)" pos
       site.entry.e_callee legit actual)

let deny_untraced pos (site : site) =
  deny_ai (Printf.sprintf "argument %d of %s is untraced" pos site.entry.e_callee)

(* Verify pointee contents word by word against the shadow.  Rodata is
   write-protected (DEP), so contents there are trusted after a bounded
   cost-only scan.  Elsewhere one batched read of the region is charged
   and each word up to the NUL terminator compared as it is read. *)
let check_extended (t : t) (tracer : Ptrace.t) ptr =
  if in_rodata ptr then Ptrace.charge_string tracer ptr
  else begin
    Ptrace.charge_read tracer Arg_rules.max_extended_words;
    let i = ref 0 in
    while !i < Arg_rules.max_extended_words do
      let actual = Ptrace.peek_at tracer ptr !i in
      if Int64.equal actual 0L then i := Arg_rules.max_extended_words
      else begin
        let slot = lookup_at t ptr !i in
        if slot < 0 then deny_ai "extended argument contents untraced";
        if differs t slot actual then deny_ai "extended argument contents corrupted";
        incr i
      end
    done
  end

(* The per-caller constant for a slot, if the trap's caller frame is a
   traced callsite listed for it: its index in [ctx_values], or -1.  An
   unknown or unlisted caller is not a violation by itself — the slot
   just falls back to the dynamic path (and the CF context has already
   judged the stack). *)
let ctx_index (t : t) (m : mem_check) (rest : Ptrace.frame_view list) =
  match rest with
  | caller :: _ when Array.length m.ctx_callers > 0 ->
    let c = site_at t caller.fv_callsite in
    if c < 0 then -1
    else
      let id = t.image.sites.(c).entry.e_id and i = ref 0 in
      while !i < Array.length m.ctx_callers && m.ctx_callers.(!i) <> id do
        incr i
      done;
      if !i < Array.length m.ctx_callers then !i else -1
  | _ -> -1

(* Dynamic verification of one [Spec_mem] slot. *)
let check_mem (t : t) (site : site) (frame : Ptrace.frame_view) ~rest pos (m : mem_check)
    actual =
  match ctx_index t m rest with
  | i when i >= 0 ->
    (* 1-context pre-resolved slot: constant per caller, matched
       against the caller frame's callsite — still no probes. *)
    t.ctx_hits <- t.ctx_hits + 1;
    note_tier t Obs.Event.Tier_ctx;
    let legit = m.ctx_values.(i) in
    if not (Int64.equal legit actual) then deny_corrupted pos site legit actual
  | _ -> (
    (match m.rank with
    | Some true -> t.ai_tainted <- t.ai_tainted + 1
    | Some false -> t.ai_untainted <- t.ai_untainted + 1
    | None -> ());
    match m.cheap with
    | Some recipe when t.config.taint_cheap_path ->
      (* Untainted slot: the bound object's address is statically
         known, so the expected value is one shadow probe away — the
         binding-table lookup is skipped.  Denial semantics are
         identical to the full path: a missing shadow entry still means
         untraced, a mismatch still means corrupted. *)
      note_tier t Obs.Event.Tier_cheap;
      let slot =
        match recipe with
        | Metadata.Cheap_frame off -> lookup_at t frame.fv_base off
        | Metadata.Cheap_global g -> lookup_at t g 0
      in
      if slot < 0 then deny_untraced pos site;
      if differs t slot actual then
        deny_corrupted pos site (Shadow_memory.value t.runtime.shadow slot) actual
    | Some _ | None ->
      (* The full two-lookup path: binding table, then shadow. *)
      note_tier t Obs.Event.Tier_full;
      let bound = lookup_at t m.binding 0 in
      if bound < 0 then
        deny_ai
          (Printf.sprintf "argument %d of %s was never bound" pos site.entry.e_callee);
      let slot = Shadow_memory.find_bound t.runtime.shadow bound in
      charge_lookup t;
      if slot < 0 then deny_untraced pos site;
      if differs t slot actual then
        deny_corrupted pos site (Shadow_memory.value t.runtime.shadow slot) actual)

(* The bound arguments of the call [frame] has in flight at [site];
   [rest] are the frames outside it, innermost first. *)
let check_callsite_args (t : t) (tracer : Ptrace.t) (site : site)
    (frame : Ptrace.frame_view) ~rest =
  for k = 0 to Array.length site.plan - 1 do
    let { pos; check; pointee } = site.plan.(k) in
    charge_check t;
    let actual = Machine.Args.get frame.fv_args pos in
    (match check with
    | Const c ->
      if not (Int64.equal actual c) then
        deny_ai
          (Printf.sprintf "constant argument %d of %s corrupted" pos site.entry.e_callee)
    | Pre legit ->
      (* Pre-resolved slot: the compiler proved the argument constant
         along all paths, so the static constant *is* the legitimate
         value — compare directly, skipping the binding-table and
         shadow probes (two priced lookups saved per slot). *)
      t.pre_resolved_hits <- t.pre_resolved_hits + 1;
      note_tier t Obs.Event.Tier_pre_resolved;
      if not (Int64.equal legit actual) then deny_corrupted pos site legit actual
    | Mem m -> check_mem t site frame ~rest pos m actual);
    if not (Int64.equal actual 0L) then
      match pointee with
      | Value_only -> ()
      | Sockaddr when t.config.sockaddr_fastpath -> Ptrace.charge_read tracer 2
      | Sockaddr | Contents -> check_extended t tracer actual
  done

(* Deny when the sensitive local at word [off] of [frame] differs from
   its shadow copy ([actual] is the word the snapshot holds for it). *)
let check_local (t : t) (frame : Ptrace.frame_view) off actual =
  charge_check t;
  let slot = lookup_at t frame.fv_base off in
  if slot >= 0 && differs t slot actual then
    deny_ai (Printf.sprintf "sensitive variable at %s+%d corrupted" frame.fv_func off)

(* Sweep the frame's sensitive locals: the snapshot's coalesced read
   charged their span, so a live snapshot's words are read from the
   stopped tracee; an injected one carries them. *)
let check_frame_slots (t : t) (tracer : Ptrace.t) (snap : Ptrace.snapshot)
    (frame : Ptrace.frame_view) =
  if frame.fv_fidx >= 0 then
    let offsets = t.image.slots.(frame.fv_fidx) in
    match snap.sn_slots with
    | None ->
      for k = 0 to Array.length offsets - 1 do
        let off = offsets.(k) in
        check_local t frame off (Ptrace.peek_at tracer frame.fv_base off)
      done
    | Some spans when Array.length offsets > 0 -> (
      match List.find_opt (fun (base, _) -> Int64.equal base frame.fv_base) spans with
      | None -> ()
      | Some (_, (slots : Ptrace.frame_slots)) ->
        Array.iter
          (fun off -> check_local t frame off slots.sl_span.(off - slots.sl_lo))
          offsets)
    | Some _ -> ()

let rec check_frames (t : t) tracer snap = function
  | [] -> ()
  | (frame : Ptrace.frame_view) :: rest ->
    let site = site_at t frame.fv_callsite in
    if site >= 0 then check_callsite_args t tracer t.image.sites.(site) frame ~rest;
    check_frame_slots t tracer snap frame;
    check_frames t tracer snap rest

let check_argument_integrity (t : t) (tracer : Ptrace.t) (regs : Ptrace.regs)
    (snap : Ptrace.snapshot) =
  (* The trapping callsite itself must carry argument metadata *for the
     trapped syscall*: a sensitive syscall invoked from a callsite the
     compiler never bound for it has, by definition, untraced arguments
     (§10.2). *)
  let site = site_at t regs.rip in
  (match if site < 0 then None else t.image.sites.(site).entry.e_sysno with
  | Some nr when nr = regs.sysno ->
    (* Dead-site record: the conditional-constant analysis proved no
       benign execution reaches this callsite, so *any* trap here is an
       attack — denied before a single probe is spent. *)
    if t.image.sites.(site).entry.e_dead then
      deny_ai "syscall invoked at a callsite no benign execution reaches"
  | Some _ | None -> deny_ai "syscall arguments are untraced at this callsite");
  (* Per frame, innermost first: verify the bound arguments of the call
     the frame has in flight (the next frame is its caller, for context
     pre-resolution), then sweep the frame's sensitive locals. *)
  check_frames t tracer snap snap.sn_frames;
  (* Whole-trap sweep of sensitive globals (and global struct fields),
     one batched read per region, each word compared as it is read. *)
  let image = t.image in
  for g = 0 to Array.length image.global_addrs - 1 do
    let addr = image.global_addrs.(g) in
    Ptrace.charge_read tracer image.global_words.(g);
    for i = 0 to image.global_words.(g) - 1 do
      charge_check t;
      let slot = lookup_at t addr i in
      if slot >= 0 && differs t slot (Ptrace.peek_at tracer addr i) then
        deny_ai (Printf.sprintf "sensitive global %s corrupted" image.global_names.(g))
    done
  done

(* ------------------------------------------------------------------ *)
(* Flight-recorder hooks.  Observation reads the machine's cycle clock
   but never charges it: a run's cycle totals and verdicts are
   identical with the recorder on or off.  With no recorder (or an
   un-armed one) each hook is an option match / counter bump. *)

type trap_obs = {
  ob_seq : int;
  ob_start : int;           (* machine cycles at trap entry *)
  ob_calls0 : int;          (* tracer counters at trap entry ... *)
  ob_words0 : int;
  ob_probes0 : int;         (* ... and shadow probes, for the deltas *)
  mutable ob_spans : Obs.Event.span list;  (* reverse execution order *)
  mutable ob_cache : bool option;
  mutable ob_depth : int;
  mutable ob_input : Obs.Event.input option;
}

(* Capture the monitor's snapshot inputs into the event, so an audit
   record carries everything needed to re-derive its verdict offline.
   Arguments and spans are copied: the machine overwrites its argument
   files in place.
   A live snapshot's slot spans are read from the stopped tracee here,
   before any check runs. *)
let input_of (t : t) (tracer : Ptrace.t) (regs : Ptrace.regs)
    (snap : Ptrace.snapshot option) : Obs.Event.input =
  let frames, slots =
    match snap with
    | None -> ([], [])
    | Some snap ->
      ( List.map
          (fun (fv : Ptrace.frame_view) ->
            {
              Obs.Event.f_func = fv.fv_func;
              f_callsite = fv.fv_callsite;
              f_args = Machine.Args.to_array fv.fv_args;
              f_ret = fv.fv_ret_token;
              f_base = fv.fv_base;
            })
          snap.sn_frames,
        List.map
          (fun ((base, s) : int64 * Ptrace.frame_slots) ->
            { Obs.Event.sr_base = base; sr_lo = s.sl_lo;
              sr_span = Array.copy s.sl_span })
          (Ptrace.slot_spans tracer snap ~lo:t.image.span_lo
             ~span_words:t.image.span_words) )
  in
  { Obs.Event.in_args = Machine.Args.to_array regs.args; in_frames = frames;
    in_slots = slots }

let cycles_now (t : t) = t.machine.stats.cycles

let obs_begin (t : t) (tracer : Ptrace.t) : trap_obs option =
  match t.recorder with
  | Some r when Obs.Recorder.armed r ->
    Some
      {
        ob_seq = Obs.Recorder.next_seq r;
        ob_start = cycles_now t;
        ob_calls0 = tracer.calls_made;
        ob_words0 = tracer.words_read;
        ob_probes0 = Shadow_memory.probe_count t.runtime.shadow;
        ob_spans = [];
        ob_cache = None;
        ob_depth = 0;
        ob_input = None;
      }
  | _ -> None

(** Run one context check as an observed phase span. *)
let obs_span (t : t) (obs : trap_obs option) phase f =
  match obs with
  | None -> f ()
  | Some ob ->
    let t0 = cycles_now t in
    let push outcome =
      ob.ob_spans <-
        { Obs.Event.sp_phase = phase; sp_outcome = outcome; sp_start = t0;
          sp_dur = cycles_now t - t0 }
        :: ob.ob_spans
    in
    (try f () with Deny _ as e -> push Obs.Event.Failed; raise e);
    push Obs.Event.Passed

(** Mark a phase the verdict cache vouched for (zero-duration span). *)
let obs_cached (t : t) (obs : trap_obs option) phase =
  match obs with
  | None -> ()
  | Some ob ->
    ob.ob_spans <-
      { Obs.Event.sp_phase = phase; sp_outcome = Obs.Event.Cached;
        sp_start = cycles_now t; sp_dur = 0 }
      :: ob.ob_spans

let obs_finish (t : t) (tracer : Ptrace.t) (obs : trap_obs option) ~(rip : int64)
    ~kind ~(tier : Obs.Event.tier option) (verdict : Obs.Event.verdict) =
  match t.recorder with
  | None -> ()
  | Some r -> (
    match obs with
    | None ->
      (* Un-armed recorder: the hook reduces to counter bumps. *)
      Obs.Recorder.count_trap r
        ~denied:(match verdict with Obs.Event.Denied _ -> true | Obs.Event.Allowed -> false)
    | Some ob ->
      Obs.Recorder.record_trap r
        {
          Obs.Event.ev_seq = ob.ob_seq;
          ev_kind = kind;
          ev_sysno = tracer.cur_sysno;
          ev_sysname = Syscalls.name tracer.cur_sysno;
          ev_rip = rip;
          ev_start = ob.ob_start;
          ev_dur = cycles_now t - ob.ob_start;
          ev_verdict = verdict;
          ev_spans = List.rev ob.ob_spans;
          ev_cache = ob.ob_cache;
          ev_depth = ob.ob_depth;
          ev_ptrace_calls = tracer.calls_made - ob.ob_calls0;
          ev_ptrace_words = tracer.words_read - ob.ob_words0;
          ev_shadow_probes = Shadow_memory.probe_count t.runtime.shadow - ob.ob_probes0;
          ev_shard = 0;
          ev_tracee = 0;
          ev_tier = tier;
          ev_input = ob.ob_input;
        })

(* The trap's settled tier: the deepest contribution noted while the
   checks ran.  A trap that engaged none of the tiered machinery (e.g.
   the CT-only configuration, or a stack with no AI-bound slots) is
   conservatively [Tier_full] — nothing cheaper vouched for it. *)
let settle_tier (t : t) : Obs.Event.tier =
  match Obs.Event.tier_of_rank t.cur_tier with
  | Some tier -> tier
  | None -> Obs.Event.Tier_full

let full_check (t : t) (tracer : Ptrace.t) : Process.verdict =
  t.traps_checked <- t.traps_checked + 1;
  t.cur_tier <- -1;
  let obs = obs_begin t tracer in
  let regs = t.source.ts_regs tracer in
  try
    if not (t.config.contexts.cf || t.config.contexts.ai) then begin
      (* CT needs no process state beyond the registers. *)
      (match obs with
      | Some ob -> ob.ob_input <- Some (input_of t tracer regs None)
      | None -> ());
      if t.config.contexts.ct then
        obs_span t obs Obs.Event.Ct (fun () -> check_call_type t regs)
    end
    else begin
      let snap = t.source.ts_snapshot tracer ~span_words:t.image.span_words in
      (match obs with
      | Some ob -> ob.ob_input <- Some (input_of t tracer regs (Some snap))
      | None -> ());
      let frames = snap.sn_frames in
      let depth = List.length frames in
      t.depth_total <- t.depth_total + depth;
      t.depth_samples <- t.depth_samples + 1;
      if depth < t.depth_min then t.depth_min <- depth;
      if depth > t.depth_max then t.depth_max <- depth;
      (match obs with Some ob -> ob.ob_depth <- depth | None -> ());
      (* Trap fast path: the cache only ever short-circuits CT and CF
         together, and only records keys that passed both — so it is
         enabled exactly when both are enforced.  AI always re-runs. *)
      let use_cache =
        t.config.trap_cache && t.config.contexts.ct && t.config.contexts.cf
      in
      let cache_key =
        if use_cache then begin
          Machine.charge t.machine t.machine.config.cost.cache_probe;
          Some
            (Verdict_cache.key_of_frames ~sysno:regs.sysno ~rip:regs.rip
               ~names:t.image.names frames)
        end
        else None
      in
      let hit =
        match cache_key with Some k -> Verdict_cache.probe t.cache k | None -> false
      in
      (match obs with
      | Some ob when use_cache -> ob.ob_cache <- Some hit
      | _ -> ());
      if hit then begin
        note_tier t Obs.Event.Tier_cached;
        obs_cached t obs Obs.Event.Ct;
        obs_cached t obs Obs.Event.Cf
      end
      else begin
        if t.config.contexts.ct then
          obs_span t obs Obs.Event.Ct (fun () -> check_call_type t regs);
        if t.config.contexts.cf then
          obs_span t obs Obs.Event.Cf (fun () ->
              check_control_flow t tracer regs frames);
        (* Only reached when CT and CF both passed. *)
        match cache_key with
        | Some k -> Verdict_cache.record t.cache k
        | None -> ()
      end;
      if t.config.contexts.ai then
        obs_span t obs Obs.Event.Ai (fun () ->
            check_argument_integrity t tracer regs snap)
    end;
    obs_finish t tracer obs ~rip:regs.rip ~kind:Obs.Event.Trap_check
      ~tier:(Some (settle_tier t)) Obs.Event.Allowed;
    Process.Continue
  with Deny (context, detail) ->
    t.denials <- { d_sysno = tracer.cur_sysno; d_context = context; d_detail = detail } :: t.denials;
    obs_finish t tracer obs ~rip:regs.rip ~kind:Obs.Event.Trap_check
      ~tier:(Some (settle_tier t))
      (Obs.Event.Denied { d_context = context; d_detail = detail });
    Process.Deny { context; detail }

let fetch_only (t : t) (tracer : Ptrace.t) : Process.verdict =
  t.traps_checked <- t.traps_checked + 1;
  let obs = obs_begin t tracer in
  let regs = t.source.ts_regs tracer in
  let snap = t.source.ts_snapshot tracer ~span_words:t.image.span_words in
  (match obs with
  | Some ob ->
    ob.ob_depth <- List.length snap.sn_frames;
    ob.ob_input <- Some (input_of t tracer regs (Some snap))
  | None -> ());
  obs_finish t tracer obs ~rip:regs.rip ~kind:Obs.Event.Fetch_only ~tier:None
    Obs.Event.Allowed;
  Process.Continue

(* ------------------------------------------------------------------ *)
(* Deployment                                                          *)

(** The seccomp filter §7.1 describes: ALLOW non-sensitive calls used by
    the program, KILL not-callable calls (sensitive or not, §11.3),
    TRACE directly/indirectly-callable sensitive calls.  Unknown syscall
    numbers default to KILL. *)
let build_filter (t : t) : Kernel.Seccomp.filter =
  (* Rebuilding the filter invalidates every cached CT+CF verdict: the
     callable set (and hence what a trap means) may have changed. *)
  Verdict_cache.bump_epoch t.cache;
  let filter = Kernel.Seccomp.create ~default:Kernel.Seccomp.Kill () in
  List.iter
    (fun (_, nr, _) ->
      let ct = Calltype.call_type t.meta.calltype nr in
      let callable = ct.directly || ct.indirectly in
      let action =
        if not callable then
          (* Not-callable enforcement is the Call-Type context's seccomp
             leg; with CT disabled (context-attribution runs), deliver a
             trap instead so the other contexts get to judge. *)
          if t.config.contexts.ct then Kernel.Seccomp.Kill else Kernel.Seccomp.Trace
        else if Syscalls.is_sensitive nr then Kernel.Seccomp.Trace
        else if Syscalls.is_filesystem nr then
          match t.config.fs_mode with
          | Fs_off | Fs_hook_only -> Kernel.Seccomp.Allow
          | Fs_fetch_only | Fs_full -> Kernel.Seccomp.Trace
        else Kernel.Seccomp.Allow
      in
      Kernel.Seccomp.set_rule filter nr action)
    Syscalls.table;
  filter

let hook (t : t) (proc : Process.t) ~sysno ~args:_ : Process.verdict =
  if Syscalls.is_filesystem sysno && not (Syscalls.is_sensitive sysno) then
    match t.config.fs_mode with
    | Fs_fetch_only -> fetch_only t proc.tracer
    | Fs_full -> full_check t proc.tracer
    | Fs_off | Fs_hook_only -> Process.Continue
  else full_check t proc.tracer

(** Mirror the legacy counters of the whole enforcement pipeline into a
    metrics registry as sampled probes.  The original accessors stay
    authoritative — the registry reads them at snapshot time, so the
    two views can never disagree (the test suite checks the emitted
    trace against [calls_made], {!cache_stats} and the shadow probe
    statistics). *)
let register_probes (t : t) (tracer : Ptrace.t) (reg : Obs.Metrics.t) =
  let p name f = Obs.Metrics.register_probe reg name f in
  let fi f = fun () -> float_of_int (f ()) in
  p "ptrace.calls_made" (fi (fun () -> tracer.calls_made));
  p "ptrace.words_read" (fi (fun () -> tracer.words_read));
  p "ptrace.getregs" (fi (fun () -> tracer.getregs_count));
  p "ptrace.frames_walked" (fi (fun () -> tracer.frames_walked));
  p "cache.hits" (fi (fun () -> Verdict_cache.hits t.cache));
  p "cache.misses" (fi (fun () -> Verdict_cache.misses t.cache));
  p "cache.records" (fi (fun () -> Verdict_cache.records t.cache));
  p "cache.epoch" (fi (fun () -> Verdict_cache.epoch t.cache));
  p "cache.hit_rate" (fun () -> Verdict_cache.hit_rate t.cache);
  let shadow = t.runtime.shadow in
  p "shadow.lookups" (fi (fun () -> Shadow_memory.lookup_count shadow));
  p "shadow.lookup_probes" (fi (fun () -> Shadow_memory.probe_count shadow));
  p "shadow.mean_probe_length" (fun () -> Shadow_memory.mean_probe_length shadow);
  p "shadow.inserts" (fi (fun () -> Shadow_memory.insert_count shadow));
  p "shadow.insert_probes" (fi (fun () -> Shadow_memory.insert_probe_count shadow));
  p "shadow.mean_insert_probe_length" (fun () ->
      Shadow_memory.mean_insert_probe_length shadow);
  p "shadow.entries" (fi (fun () -> Shadow_memory.entry_count shadow));
  let pf f = fi (fun () -> match t.prefilter with Some fa -> f fa | None -> 0) in
  p "prefilter.resolved" (pf (fun fa -> fa.Kernel.Seccomp.fa_resolved));
  p "prefilter.fallthroughs" (pf (fun fa -> fa.Kernel.Seccomp.fa_fallthroughs));
  p "prefilter.kills" (pf (fun fa -> fa.Kernel.Seccomp.fa_kills));
  p "prefilter.nodes" (pf (fun fa -> Kernel.Seccomp.flow_node_count fa.fa_graph));
  p "prefilter.edges" (pf (fun fa -> Kernel.Seccomp.flow_edge_count fa.fa_graph));
  p "monitor.traps_checked" (fi (fun () -> t.traps_checked));
  p "monitor.preresolved_hits" (fi (fun () -> t.pre_resolved_hits));
  p "monitor.preresolved_ctx_hits" (fi (fun () -> t.ctx_hits));
  p "monitor.ai.tainted" (fi (fun () -> t.ai_tainted));
  p "monitor.ai.untainted" (fi (fun () -> t.ai_untainted));
  p "monitor.denials" (fi (fun () -> List.length t.denials));
  p "monitor.init_cycles" (fi (fun () -> t.init_cycles));
  p "machine.cycles" (fi (fun () -> t.machine.stats.cycles));
  p "machine.instrs" (fi (fun () -> t.machine.stats.instrs));
  p "machine.syscalls" (fi (fun () -> t.machine.stats.syscalls))

(** Attach the monitor to a booted process: install the seccomp filter
    and the TRACE hook; with a recorder present, also mirror the
    pipeline's legacy counters into its registry. *)
let attach (t : t) (proc : Process.t) =
  proc.filter <- Some (build_filter t);
  proc.tracer_hook <- Some (fun proc ~sysno ~args -> hook t proc ~sysno ~args);
  match t.recorder with
  | Some r -> register_probes t proc.tracer (Obs.Recorder.metrics r)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The tiered entry point: the syscall-flow pre-filter                  *)

(** Deploy-time classification of the AI-checked argument positions of
    the callsite at [addr], invoking [sysno].  [`Pin c]: the legitimate
    value is the statically-known constant [c] ([Spec_const] entries
    and pre-resolved [Spec_mem] slots) and, for pointer-kind positions,
    it is NULL or aims at write-protected rodata — so a register
    compare loses nothing against the full check.  [`Scalar]: a
    dynamic register-visible value (the flowgraph's value analysis
    decides whether it is checkable or opaque).  [`Pointer]: a checked
    pointer position the seccomp stage can never dereference.  [None]:
    the callsite carries no metadata for this syscall, so the
    pre-filter must not resolve there. *)
let prefilter_site_info (meta : Metadata.t) ~(addr : int64) ~(sysno : int option) :
    (int * [ `Pin of int64 | `Scalar | `Pointer ]) list option =
  match (Hashtbl.find_opt meta.cs_by_addr addr, sysno) with
  | None, _ | _, None -> None
  | Some entry, Some nr ->
    if entry.Metadata.e_sysno <> Some nr then None
    else
      Some
        (List.map
           (fun ((pos, spec) : int * Metadata.arg_spec) ->
             let pointer =
               match Arg_rules.kind ~sysno:nr ~pos with
               | Arg_rules.Direct -> false
               | Arg_rules.Sockaddr | Arg_rules.Extended -> true
             in
             let pin =
               match spec with
               | Metadata.Spec_const c -> Some c
               | Metadata.Spec_mem -> List.assoc_opt pos entry.e_pre
             in
             match pin with
             | Some c when (not pointer) || Int64.equal c 0L || in_rodata c ->
               (pos, `Pin c)
             | Some _ | None -> (pos, if pointer then `Pointer else `Scalar))
           entry.e_specs)

(** Install a deployed automaton: remember it, hand it to the process's
    seccomp filter, and wire the flight-recorder instant so resolved
    calls stay visible in traces.  Requires {!attach} first. *)
let install_prefilter (t : t) (proc : Process.t)
    (fa : Kernel.Seccomp.flow_automaton) =
  (match proc.filter with
  | Some filter -> Kernel.Seccomp.set_flow filter (Some fa)
  | None ->
    invalid_arg "Monitor.install_prefilter: process has no filter (attach first)");
  t.prefilter <- Some fa;
  fa.Kernel.Seccomp.fa_on_resolve <-
    Some
      (fun ~sysno:_ ~rip:_ ->
        match t.recorder with
        | Some r when Obs.Recorder.armed r ->
          Obs.Recorder.record_instant r ~name:"prefilter.resolve" ~at:(cycles_now t)
        | Some _ | None -> ())

let prefilter (t : t) = t.prefilter

(** Per-tier resolution counters:
    (resolved at pre-filter, fell through to the full path,
     standalone-mode kills). *)
let prefilter_stats (t : t) =
  match t.prefilter with
  | Some fa -> Kernel.Seccomp.flow_stats fa
  | None -> (0, 0, 0)

let prefilter_resolved (t : t) =
  match t.prefilter with Some fa -> fa.Kernel.Seccomp.fa_resolved | None -> 0

let denials (t : t) = List.rev t.denials

(** The deployed metadata's fingerprint ({!Metadata.fingerprint}). *)
let fingerprint (t : t) = Metadata.fingerprint t.meta t.machine.layout

(** Verdict-cache statistics of the trap fast path:
    (hits, misses, hit rate). *)
let cache_stats (t : t) =
  (Verdict_cache.hits t.cache, Verdict_cache.misses t.cache,
   Verdict_cache.hit_rate t.cache)

(** AI slots verified against a pre-resolved static constant (no shadow
    probe charged). *)
let pre_resolved_hits (t : t) = t.pre_resolved_hits

(** AI slots verified against a per-caller (1-context) constant. *)
let ctx_resolved_hits (t : t) = t.ctx_hits

(** Ranked-slot verification counts: (tainted — full path, untainted —
    cheap-path eligible). *)
let ai_rank_stats (t : t) = (t.ai_tainted, t.ai_untainted)

(** §9.2 call-depth statistics over all verified traps:
    (min, mean, max); [None] before the first stack walk. *)
let depth_stats (t : t) =
  if t.depth_samples = 0 then None
  else
    Some
      ( t.depth_min,
        float_of_int t.depth_total /. float_of_int t.depth_samples,
        t.depth_max )
