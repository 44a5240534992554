(* Shared helpers for the test suites: small program fixtures built with
   the SIL builder. *)

module B = Sil.Builder

let check_exit outcome =
  match (outcome : Machine.outcome) with
  | Machine.Exited _ -> ()
  | Machine.Faulted f -> Alcotest.failf "expected clean exit, got %s" (Machine.fault_to_string f)

let check_fault outcome pred name =
  match (outcome : Machine.outcome) with
  | Machine.Exited _ -> Alcotest.failf "expected %s fault, program exited" name
  | Machine.Faulted f ->
    if not (pred f) then
      Alcotest.failf "expected %s fault, got %s" name (Machine.fault_to_string f)

let is_monitor_kill ?context (f : Machine.fault) =
  match f with
  | Machine.Monitor_kill { context = c; _ } -> (
    match context with Some want -> String.equal want c | None -> true)
  | _ -> false

let is_seccomp_kill = function Machine.Seccomp_kill _ -> true | _ -> false
let is_cet_violation = function Machine.Cet_violation _ -> true | _ -> false
let is_cfi_violation = function Machine.Cfi_violation _ -> true | _ -> false

(** A minimal program exercising the BASTION pipeline end to end:

    main stores a path into a global exec context, then calls
    [do_exec], which loads the path and invokes execve directly.  Also
    contains an unused function pointer dispatch so the program has an
    indirect callsite, and a helper that mprotects a buffer. *)
let exec_program () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.struct_ pb "exec_ctx" [ ("path", Sil.Types.Ptr Sil.Types.I64); ("flag", Sil.Types.I64) ];
  B.global pb "gctx" (Sil.Types.Struct "exec_ctx") Sil.Prog.Zero;
  B.global pb "ghandler" (Sil.Types.Ptr (Sil.Types.Func { params = [ Sil.Types.I64 ]; ret = Sil.Types.I64 }))
    (Sil.Prog.Fptr "log_event");
  (* A benign indirect-call target. *)
  let fb = B.func pb "log_event" ~params:[ ("code", Sil.Types.I64) ] in
  B.ret fb (Some (Sil.Operand.Var (B.param fb 0)));
  B.seal fb;
  (* do_exec(ctx): execve(ctx->path, 0, 0) *)
  let fb = B.func pb "do_exec" ~params:[ ("ctx", Sil.Types.Ptr (Sil.Types.Struct "exec_ctx")) ] in
  let path = B.local fb "path" (Sil.Types.Ptr Sil.Types.I64) in
  B.load fb path (Sil.Place.Lfield (Sil.Operand.Var (B.param fb 0), "exec_ctx", "path"));
  B.call fb "execve" [ Sil.Operand.Var path; Sil.Operand.Null; Sil.Operand.Null ];
  B.ret fb None;
  B.seal fb;
  (* protect_buf(): mprotect(heap, 16, PROT_READ) *)
  let fb = B.func pb "protect_buf" ~params:[] in
  let buf = B.local fb "buf" (Sil.Types.Ptr Sil.Types.I64) in
  let r = B.local fb "r" Sil.Types.I64 in
  B.call fb ~dst:buf "mmap" [ Sil.Operand.Null; Sil.Operand.const 16; Sil.Operand.const 1 ];
  B.call fb ~dst:r "mprotect" [ Sil.Operand.Var buf; Sil.Operand.const 16; Sil.Operand.const 1 ];
  B.ret fb None;
  B.seal fb;
  (* compute(): pure helper with no syscalls — ROP target for tests *)
  let fb = B.func pb "compute" ~params:[ ("x", Sil.Types.I64) ] in
  let y = B.local fb "y" Sil.Types.I64 in
  B.binop fb y Sil.Instr.Mul (Sil.Operand.Var (B.param fb 0)) (Sil.Operand.const 3);
  B.binop fb y Sil.Instr.Add (Sil.Operand.Var y) (Sil.Operand.const 1);
  B.ret fb (Some (Sil.Operand.Var y));
  B.seal fb;
  (* main *)
  let fb = B.func pb "main" ~params:[] in
  let p = B.local fb "p" (Sil.Types.Ptr (Sil.Types.Struct "exec_ctx")) in
  let h = B.local fb "h" (Sil.Types.Ptr Sil.Types.I64) in
  let r = B.local fb "r" Sil.Types.I64 in
  B.addr_of fb p (Sil.Place.Lglobal "gctx");
  B.store fb (Sil.Place.Lfield (Sil.Operand.Var p, "exec_ctx", "path"))
    (Sil.Operand.Cstr "/usr/bin/app");
  B.store fb (Sil.Place.Lfield (Sil.Operand.Var p, "exec_ctx", "flag")) (Sil.Operand.const 7);
  B.call fb "protect_buf" [];
  B.call fb ~dst:r "compute" [ Sil.Operand.const 5 ];
  B.load fb h (Sil.Place.Lglobal "ghandler");
  B.call_indirect fb ~dst:r (Sil.Operand.Var h) [ Sil.Operand.const 42 ];
  B.call fb "do_exec" [ Sil.Operand.Var p ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

(* A small random program: one frozen and one mutated global, a helper
   whose parameter summary the generator can keep constant or kill, and
   a main whose entry / branch arms / join are filled with
   generator-chosen statements over four locals (constant sets, copies,
   arithmetic, global loads, helper calls, address-taking).  Folding
   branches, address-taken pinning and joined summaries all arise from
   the codes. *)
let random_prog (codes : int list) =
  let open Sil.Operand in
  let i64 = Sil.Types.I64 and ptr = Sil.Types.Ptr Sil.Types.I64 in
  let pb = B.program () in
  B.global pb "g0" i64 (Sil.Prog.Word 11L);
  B.global pb "g1" i64 (Sil.Prog.Word 3L);
  let fb = B.func pb "helper" ~params:[ ("a", i64) ] in
  let t = B.local fb "t" i64 in
  B.binop fb t Sil.Instr.Add (Var (B.param fb 0)) (const 1);
  B.ret fb (Some (Var t));
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  let vs = Array.init 4 (fun i -> B.local fb (Printf.sprintf "v%d" i) i64) in
  let pa = B.local fb "pa" ptr in
  let emit code =
    let dst = vs.((code / 8) mod 4) in
    let src = vs.((code / 32) mod 4) in
    match code mod 8 with
    | 0 -> B.set fb dst (const ((code / 16) mod 5))
    | 1 -> B.set fb dst (Var src)
    | 2 -> B.binop fb dst Sil.Instr.Add (Var src) (const ((code / 64) mod 3))
    | 3 -> B.set fb dst (Global "g0")
    | 4 -> B.set fb dst (Global "g1")
    | 5 -> B.call fb ~dst "helper" [ const ((code / 16) mod 7) ]
    | 6 -> B.call fb ~dst "helper" [ Var src ]
    | _ -> B.addr_of fb pa (Sil.Place.Lvar dst)
  in
  let seg k = List.filteri (fun i _ -> i mod 4 = k) codes in
  List.iter emit (seg 0);
  let cond =
    match codes with
    | c :: _ when c mod 3 = 0 -> const (c mod 2)
    | c :: _ -> Var vs.(c mod 4)
    | [] -> const 0
  in
  B.branch fb cond "then" "else";
  B.block fb "then";
  List.iter emit (seg 1);
  B.jump fb "join";
  B.block fb "else";
  List.iter emit (seg 2);
  B.jump fb "join";
  B.block fb "join";
  List.iter emit (seg 3);
  B.store fb (Sil.Place.Lglobal "g1") (Var vs.(0));
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

(** The laws the machine's dense code image rests on, as a list of
    violations (empty when they all hold).  For every instruction and
    terminator, in sorted-function layout order: addresses run
    contiguously from [code_base] in 8-byte steps; [point_of_addr]
    inverts [addr_of_point]; [func_of_addr] names the owning function;
    [func_of_entry_addr] answers only at function entries; misaligned
    and out-of-range addresses are no code point.  Every variable slot
    lies inside its frame. *)
let code_image_violations (prog : Sil.Prog.t) =
  let module L = Machine.Layout in
  let layout = L.build prog in
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let next = ref L.code_base in
  List.iter
    (fun (f : Sil.Func.t) ->
      let entry = L.func_entry layout f.fname in
      if not (Int64.equal entry !next) then fail "%s: entry %Lx, expected %Lx" f.fname entry !next;
      let words = L.frame_words layout f.fname in
      List.iter
        (fun ((v : Sil.Operand.var), _) ->
          let off = L.var_offset layout f.fname v.vid in
          if off < 0 || off >= words then
            fail "%s: %s at slot %d outside a %d-word frame" f.fname v.vname off words)
        (Sil.Func.all_vars f);
      List.iter
        (fun (b : Sil.Func.block) ->
          let points =
            List.init (Array.length b.instrs) (fun i -> L.Instr_at (Sil.Loc.make f.fname b.label i))
            @ [ L.Term_of (f.fname, b.label) ]
          in
          List.iter
            (fun point ->
              let a = L.addr_of_point layout point in
              let where = Printf.sprintf "%s:%s @%Lx" f.fname b.label a in
              if not (Int64.equal a !next) then fail "%s: expected address %Lx" where !next;
              if L.point_of_addr layout a <> Some point then
                fail "%s: point_of_addr is not the inverse" where;
              if L.func_of_addr layout a <> Some f.fname then
                fail "%s: func_of_addr misnames the owner" where;
              let want = if Int64.equal a entry then Some f.fname else None in
              if L.func_of_entry_addr layout a <> want then
                fail "%s: func_of_entry_addr wrong" where;
              if L.point_of_addr layout (Int64.add a 4L) <> None then
                fail "%s: misaligned address decodes" where;
              next := Int64.add !next 8L)
            points)
        f.blocks)
    (Sil.Prog.functions prog);
  List.iter
    (fun a ->
      if L.point_of_addr layout a <> None || L.func_of_addr layout a <> None then
        fail "address %Lx outside the image decodes" a)
    [ Int64.sub L.code_base 8L; !next; Int64.logor L.code_base Int64.min_int ];
  List.rev !bad

(** Run a protected session to completion, returning outcome + session. *)
let run_protected ?monitor_config prog =
  let protected_prog = Bastion.Api.protect prog in
  let session = Bastion.Api.launch ?monitor_config protected_prog () in
  let outcome = Machine.run session.machine in
  (outcome, session)

(** The shadow table as it stood while its words were boxed: parallel
    [int64 array]s of keys and values plus a [bool array] used map,
    linear probing from [hash key mod capacity], growth to twice the
    capacity before an insert that would pass 70% load, every rehash
    counted as an insert.  Kept as the reference the shadow-memory law
    in [test_props.ml] holds {!Bastion.Shadow_memory} to: the monitor
    charges 2 cycles per probe, so the probe counts are part of the
    cost model, not an implementation detail. *)
module Shadow_ref = struct
  type t = {
    mutable keys : int64 array;
    mutable values : int64 array;
    mutable used : bool array;
    mutable count : int;
    mutable total_probes : int;
    mutable lookups : int;
    mutable insert_probes : int;
    mutable inserts : int;
  }

  let create () =
    { keys = Array.make 1024 0L; values = Array.make 1024 0L; used = Array.make 1024 false;
      count = 0; total_probes = 0; lookups = 0; insert_probes = 0; inserts = 0 }

  let hash (key : int64) =
    let open Int64 in
    let z = mul key 0x9E3779B97F4A7C15L in
    let z = logxor z (shift_right_logical z 30) in
    let z = mul z 0xBF58476D1CE4E5B9L in
    let z = logxor z (shift_right_logical z 27) in
    let z = mul z 0x94D049BB133111EBL in
    to_int (logand (logxor z (shift_right_logical z 31)) 0x7FFFFFFFL)

  let capacity t = Array.length t.keys

  let rec insert t key value =
    if 10 * t.count > 7 * capacity t then grow t;
    let cap = capacity t in
    t.inserts <- t.inserts + 1;
    let rec probe i steps =
      if t.used.(i) then
        if Int64.equal t.keys.(i) key then begin
          t.insert_probes <- t.insert_probes + steps + 1;
          t.values.(i) <- value
        end
        else probe ((i + 1) mod cap) (steps + 1)
      else begin
        t.insert_probes <- t.insert_probes + steps + 1;
        t.used.(i) <- true;
        t.keys.(i) <- key;
        t.values.(i) <- value;
        t.count <- t.count + 1
      end
    in
    probe (hash key mod cap) 0

  and grow t =
    let old_keys = t.keys and old_values = t.values and old_used = t.used in
    let cap = 2 * capacity t in
    t.keys <- Array.make cap 0L;
    t.values <- Array.make cap 0L;
    t.used <- Array.make cap false;
    t.count <- 0;
    Array.iteri (fun i u -> if u then insert t old_keys.(i) old_values.(i)) old_used

  let find_probes t key : int64 option * int =
    t.lookups <- t.lookups + 1;
    let cap = capacity t in
    let rec probe i steps =
      if steps > cap then (None, steps)
      else if not t.used.(i) then (None, steps + 1)
      else if Int64.equal t.keys.(i) key then (Some t.values.(i), steps + 1)
      else probe ((i + 1) mod cap) (steps + 1)
    in
    let result, steps = probe (hash key mod cap) 0 in
    t.total_probes <- t.total_probes + steps;
    (result, steps)
end

(** The verdict-cache key as it was computed before it was folded
    straight over the snapshot's frames: a [(function, return token)]
    chain built per trap ([chain_of]), each function name hashed
    character by character on every trap.  Kept as the reference that
    [Bastion.Verdict_cache.key_of_frames] must equal: cache keys decide
    hits, so they are part of what a trap costs. *)
module Cache_key_ref = struct
  let mix (key : int64) =
    let open Int64 in
    let z = mul key 0x9E3779B97F4A7C15L in
    let z = logxor z (shift_right_logical z 30) in
    let z = mul z 0xBF58476D1CE4E5B9L in
    let z = logxor z (shift_right_logical z 27) in
    let z = mul z 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let hash_string (s : string) =
    let h = ref 0xCBF29CE484222325L in
    String.iter (fun c -> h := mix (Int64.logxor !h (Int64.of_int (Char.code c)))) s;
    !h

  let no_token = 0x5BD1E9955BD1E995L

  let key ~(sysno : int) ~(rip : int64) ~(chain : (string * int64 option) list) : int64 =
    let h = mix (Int64.logxor rip (Int64.of_int sysno)) in
    List.fold_left
      (fun h (func, token) ->
        let h = mix (Int64.logxor h (hash_string func)) in
        let tok = match token with None -> no_token | Some tok -> mix tok in
        mix (Int64.logxor h tok))
      h chain

  let chain_of (frames : Kernel.Ptrace.frame_view list) =
    List.map (fun (fv : Kernel.Ptrace.frame_view) -> (fv.fv_func, fv.fv_ret_token)) frames
end

(** The verdict cache as it stood with three parallel arrays: boxed
    keys, the epoch each slot was recorded under, and a validity flag.
    Kept as the reference [Bastion.Verdict_cache] must agree with, hit
    for hit: a hit skips the CT and CF checks, so the hit rule is part
    of what a trap costs. *)
module Verdict_cache_ref = struct
  type t = {
    keys : int64 array;
    epochs : int array;
    valid : bool array;
    mask : int;
    mutable epoch : int;
    mutable hits : int;
    mutable misses : int;
    mutable records : int;
  }

  let create ~size =
    let rec pow2 k = if k >= size then k else pow2 (2 * k) in
    let size = pow2 1 in
    { keys = Array.make size 0L; epochs = Array.make size 0; valid = Array.make size false;
      mask = size - 1; epoch = 0; hits = 0; misses = 0; records = 0 }

  let index t k = Int64.to_int (Int64.logand k 0x7FFFFFFFL) land t.mask

  let probe t k =
    let i = index t k in
    let hit = t.valid.(i) && Int64.equal t.keys.(i) k && t.epochs.(i) = t.epoch in
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    hit

  let record t k =
    let i = index t k in
    t.keys.(i) <- k;
    t.epochs.(i) <- t.epoch;
    t.valid.(i) <- true;
    t.records <- t.records + 1

  let bump_epoch t = t.epoch <- t.epoch + 1
end

(** A snapshot frame for key tests: only the function (by name and
    code-image index) and the return token matter to a cache key. *)
let frame_view ?(fidx = -1) func token : Kernel.Ptrace.frame_view =
  { fv_func = func; fv_fidx = fidx; fv_callsite = 0L; fv_args = [||]; fv_ret_token = token;
    fv_base = 0L }

(** The fleet's per-trap host path as it stood before each registry
    resolved its instruments once and the schedule indexed one SWRR
    period: every arrival runs the whole SWRR step over every tracee,
    and every trap looks each of its fourteen instruments up by name.
    Kept as the references the fleet laws in [test_props.ml] hold
    {!Workloads.Fleet.schedule} and {!Workloads.Fleet.observe} to. *)
module Fleet_ref = struct
  module F = Workloads.Fleet

  let schedule (t : F.t) ~arrivals =
    let n = Array.length t.f_tracees in
    let current = Array.make n 0 in
    let total = Array.fold_left (fun acc (ts : F.tracee_spec) -> acc + ts.ts_weight) 0 t.f_tracees in
    let fired = Array.make n 0 in
    Array.init arrivals (fun _ ->
        Array.iteri
          (fun k (ts : F.tracee_spec) -> current.(k) <- current.(k) + ts.ts_weight)
          t.f_tracees;
        let best = ref 0 in
        for k = 1 to n - 1 do
          if current.(k) > current.(!best) then best := k
        done;
        current.(!best) <- current.(!best) - total;
        let ts = t.f_tracees.(!best) in
        let idx = (ts.ts_offset + fired.(!best)) mod Array.length ts.ts_profile in
        fired.(!best) <- fired.(!best) + 1;
        (ts.ts_id, ts.ts_profile.(idx)))

  let observe_trap reg ~shard ~tracee ~at ~clock (tp : F.trap_profile) =
    let svc = F.service tp in
    let start = max at clock in
    let wait = start - at in
    let finish = start + svc in
    let e2e = finish - at in
    let h name = Obs.Metrics.histogram reg name in
    let c name = Obs.Metrics.counter reg name in
    Obs.Metrics.observe (h "fleet.queue_wait") wait;
    Obs.Metrics.observe (h "fleet.service") svc;
    Obs.Metrics.observe (h "fleet.e2e") e2e;
    Obs.Metrics.observe (h "fleet.phase.prefilter") tp.tp_prefilter;
    Obs.Metrics.observe (h "fleet.phase.snapshot") tp.tp_snapshot;
    Obs.Metrics.observe (h "fleet.phase.ct") tp.tp_ct;
    Obs.Metrics.observe (h "fleet.phase.cf") tp.tp_cf;
    Obs.Metrics.observe (h "fleet.phase.ai") tp.tp_ai;
    Obs.Metrics.observe (h (Printf.sprintf "fleet.shard%d.queue_wait" shard)) wait;
    Obs.Metrics.observe (h (Printf.sprintf "fleet.shard%d.e2e" shard)) e2e;
    Obs.Metrics.observe (h (Printf.sprintf "fleet.tracee%d.e2e" tracee)) e2e;
    Obs.Metrics.incr (c "fleet.traps");
    Obs.Metrics.incr (c (Printf.sprintf "fleet.shard%d.traps" shard));
    Obs.Metrics.add (c (Printf.sprintf "fleet.shard%d.busy_cycles" shard)) svc;
    finish
end

(** The trap-stream plan as it stood with two tables per tracee — its
    claim shard and its last trap's finish — looked up five times per
    route.  Kept as the reference the one-table plan law in
    [test_props.ml] holds {!Bastion_mt.Monitor_pool.Plan} to. *)
module Plan_ref = struct
  module Pool = Bastion_mt.Monitor_pool

  type t = {
    pl_policy : Pool.policy;
    pl_shards : int;
    pl_clock : int array;
    pl_claim : (int, int) Hashtbl.t;
    pl_done : (int, int) Hashtbl.t;
    pl_items : int array;
    pl_busy : int array;
    mutable pl_steals : int;
    mutable pl_migrations : int;
  }

  let create ~policy ~shards =
    {
      pl_policy = policy;
      pl_shards = shards;
      pl_clock = Array.make shards 0;
      pl_claim = Hashtbl.create 32;
      pl_done = Hashtbl.create 32;
      pl_items = Array.make shards 0;
      pl_busy = Array.make shards 0;
      pl_steals = 0;
      pl_migrations = 0;
    }

  let least_loaded t ~prefer =
    let best = ref prefer in
    for s = 0 to t.pl_shards - 1 do
      if t.pl_clock.(s) < t.pl_clock.(!best) then best := s
    done;
    !best

  let route t ~tracee ~at ~service =
    let current =
      match Hashtbl.find_opt t.pl_claim tracee with
      | Some s -> s
      | None -> Pool.shard_of_tracee ~shards:t.pl_shards tracee
    in
    let had_claim = Hashtbl.mem t.pl_done tracee in
    let quiescent =
      match Hashtbl.find_opt t.pl_done tracee with None -> true | Some d -> d <= at
    in
    let target =
      match t.pl_policy with
      | Pool.Static -> current
      | Pool.Steal ->
        if quiescent && t.pl_clock.(current) > at then begin
          let thief = least_loaded t ~prefer:current in
          if t.pl_clock.(thief) < t.pl_clock.(current) then thief else current
        end
        else current
    in
    let migrated = had_claim && target <> current in
    if migrated then begin
      t.pl_migrations <- t.pl_migrations + 1;
      if t.pl_policy = Pool.Steal then t.pl_steals <- t.pl_steals + 1
    end;
    Hashtbl.replace t.pl_claim tracee target;
    let start = max at t.pl_clock.(target) in
    t.pl_clock.(target) <- start + service;
    Hashtbl.replace t.pl_done tracee t.pl_clock.(target);
    t.pl_items.(target) <- t.pl_items.(target) + 1;
    t.pl_busy.(target) <- t.pl_busy.(target) + service;
    target
end

(** A function whose address escapes only through a terminator: [pick]
    returns [&opener], [main] calls the result indirectly, and [opener]
    mprotects a fresh buffer.  With [~via_local:true], [pick] first
    copies [&opener] into a local, so the address also appears in an
    instruction operand. *)
let ret_escape_program ?(via_local = false) () =
  let open Sil.Operand in
  let i64 = Sil.Types.I64 and ptr = Sil.Types.Ptr Sil.Types.I64 in
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  let fb = B.func pb "opener" ~params:[ ("x", i64) ] in
  let buf = B.local fb "buf" ptr in
  let r = B.local fb "r" i64 in
  B.call fb ~dst:buf "mmap" [ Null; const 16; const 1 ];
  B.call fb ~dst:r "mprotect" [ Var buf; const 16; Var (B.param fb 0) ];
  B.ret fb (Some (Var r));
  B.seal fb;
  let fb = B.func pb "pick" ~params:[] in
  (if via_local then begin
     let h = B.local fb "h" ptr in
     B.set fb h (Func_addr "opener");
     B.ret fb (Some (Var h))
   end
   else B.ret fb (Some (Func_addr "opener")));
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  let h = B.local fb "h" ptr in
  let r = B.local fb "r" i64 in
  B.call fb ~dst:h "pick" [];
  B.call_indirect fb ~dst:r (Var h) [ const 1 ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

(** [Sil.Callgraph.build] as it stood before it became one pass: the
    calls and the address-taken set each from their own materialised
    [Prog.instrs] walk, one [Smap.add] per direct call.  Terminator
    operands are added to the address-taken set (the old build missed
    [ret &f] and a branch on [&f]).  Kept as the reference the one-pass
    build must equal field by field, list order included. *)
module Callgraph_ref = struct
  module Cg = Sil.Callgraph

  let operand_fnames op =
    match (op : Sil.Operand.t) with
    | Func_addr f -> [ f ]
    | Const _ | Cstr _ | Var _ | Global _ | Null -> []

  let term_operands (t : Sil.Instr.terminator) =
    match t with Branch (op, _, _) | Ret (Some op) -> [ op ] | Jump _ | Ret None | Halt -> []

  let build (prog : Sil.Prog.t) : Cg.t =
    let callsites =
      List.map
        (fun (cs_loc, _dst, cs_target, cs_args) -> { Cg.cs_loc; cs_target; cs_args })
        (Sil.Prog.calls prog)
    in
    let direct_callers =
      List.fold_left
        (fun acc (cs : Cg.callsite) ->
          match cs.cs_target with
          | Sil.Instr.Direct callee ->
            let existing = Option.value ~default:[] (Cg.Smap.find_opt callee acc) in
            Cg.Smap.add callee (cs.cs_loc :: existing) acc
          | Sil.Instr.Indirect _ -> acc)
        Cg.Smap.empty callsites
    in
    let indirect_callsites =
      List.filter
        (fun (cs : Cg.callsite) ->
          match cs.cs_target with Sil.Instr.Indirect _ -> true | Sil.Instr.Direct _ -> false)
        callsites
    in
    let add_ops acc ops =
      List.fold_left
        (fun acc op -> List.fold_left (fun acc f -> Cg.Sset.add f acc) acc (operand_fnames op))
        acc ops
    in
    let address_taken =
      let from_instrs =
        List.fold_left
          (fun acc (_, ins) -> add_ops acc (Sil.Instr.operands ins))
          Cg.Sset.empty (Sil.Prog.instrs prog)
      in
      let from_terms =
        List.fold_left
          (fun acc (f : Sil.Func.t) ->
            List.fold_left
              (fun acc (b : Sil.Func.block) -> add_ops acc (term_operands b.term))
              acc f.blocks)
          from_instrs (Sil.Prog.functions prog)
      in
      List.fold_left
        (fun acc (g : Sil.Prog.global) ->
          match g.ginit with Fptr f -> Cg.Sset.add f acc | Zero | Word _ | Words _ | Str _ -> acc)
        from_terms prog.globals
    in
    { Cg.prog; callsites; direct_callers; indirect_callsites; address_taken }

  (** The fields where two graphs of one program differ, with list
      order significant (empty when they are equal). *)
  let diff (a : Cg.t) (b : Cg.t) =
    List.filter_map
      (fun (name, same) -> if same then None else Some name)
      [
        ("callsites", a.callsites = b.callsites);
        ("direct_callers", Cg.Smap.equal (List.equal Sil.Loc.equal) a.direct_callers b.direct_callers);
        ("indirect_callsites", a.indirect_callsites = b.indirect_callsites);
        ("address_taken", Cg.Sset.equal a.address_taken b.address_taken);
      ]
end

(** [Sil.Validate.check] as it stood before it built per-function and
    per-program lookup tables: [Func.all_vars] rebuilt for every
    variable lookup, the globals list scanned for every global operand,
    and every instruction's location formatted whether or not it has an
    error.  Kept as the reference the table-driven validator must equal,
    error for error, in order and text. *)
module Validate_ref = struct
  module V = Sil.Validate

  let check_func (prog : Sil.Prog.t) (f : Sil.Func.t) : V.error list =
    let errs = ref [] in
    let add loc fmt = Printf.ksprintf (fun m -> errs := { V.loc; message = m } :: !errs) fmt in
    let labels = List.fold_left (fun acc (b : Sil.Func.block) -> b.label :: acc) [] f.blocks in
    let distinct = List.sort_uniq String.compare labels in
    if List.length distinct <> List.length labels then add f.fname "duplicate block labels";
    let var_known v = List.mem_assoc v (Sil.Func.all_vars f) in
    let check_scalar loc v =
      if var_known v then
        match Sil.Func.var_type f v with
        | Sil.Types.Struct _ | Sil.Types.Array _ ->
          add loc "aggregate variable %s#%d used as a scalar operand" v.vname v.vid
        | Sil.Types.Void | Sil.Types.I64 | Sil.Types.Ptr _ | Sil.Types.Func _ -> ()
    in
    let global_known g =
      List.exists (fun (x : Sil.Prog.global) -> String.equal x.gname g) prog.globals
    in
    let check_operand loc op =
      match (op : Sil.Operand.t) with
      | Var v ->
        if not (var_known v) then add loc "unknown variable %s#%d" v.vname v.vid
        else check_scalar loc v
      | Global g -> if not (global_known g) then add loc "unknown global %s" g
      | Func_addr fn ->
        if not (Sil.Prog.mem_func prog fn) then add loc "address of unknown function %s" fn
      | Const _ | Cstr _ | Null -> ()
    in
    let check_place loc p =
      List.iter (check_operand loc) (Sil.Place.operands p);
      match (p : Sil.Place.t) with
      | Lvar v -> if not (var_known v) then add loc "unknown variable %s#%d" v.vname v.vid
      | Lglobal g -> if not (global_known g) then add loc "unknown global %s" g
      | Lfield (_, sname, field) -> (
        match Hashtbl.find_opt prog.structs sname with
        | None -> add loc "unknown struct %s" sname
        | Some def ->
          if not (List.mem_assoc field def.Sil.Types.fields) then
            add loc "struct %s has no field %s" sname field)
      | Lindex _ | Lderef _ -> ()
    in
    List.iter
      (fun (loc, ins) ->
        let locs = Sil.Loc.to_string loc in
        List.iter (check_operand locs) (Sil.Instr.operands ins);
        match (ins : Sil.Instr.t) with
        | Assign (v, rv) -> (
          if not (var_known v) then add locs "assign to unknown variable %s#%d" v.vname v.vid
          else check_scalar locs v;
          match rv with Load p | Addr_of p -> check_place locs p | Use _ | Binop _ -> ())
        | Store (p, _) ->
          (match (p : Sil.Place.t) with Lvar v when var_known v -> check_scalar locs v | _ -> ());
          check_place locs p
        | Call { dst = Some v; _ } when not (var_known v) ->
          add locs "call result assigned to unknown variable %s#%d" v.vname v.vid
        | Call { target = Direct callee; args; dst } -> (
          (match dst with Some v -> check_scalar locs v | None -> ());
          match Hashtbl.find_opt prog.funcs callee with
          | None -> add locs "call to unknown function %s" callee
          | Some g ->
            let arity = List.length g.Sil.Func.params in
            let n = List.length args in
            let ok = if Sil.Func.is_syscall_stub g then n <= arity else n = arity in
            if not ok then add locs "call to %s: %d args, expected %d" callee n arity)
        | Call { target = Indirect _; dst; _ } -> (
          match dst with Some v -> check_scalar locs v | None -> ()))
      (Sil.Func.instrs f);
    List.iter
      (fun (b : Sil.Func.block) ->
        let at = f.fname ^ ":" ^ b.label in
        let check_label l = if not (List.mem l labels) then add at "jump to unknown label %s" l in
        match b.term with
        | Jump l -> check_label l
        | Branch (op, l1, l2) ->
          check_operand at op;
          check_label l1;
          check_label l2
        | Ret (Some op) -> check_operand at op
        | Ret None | Halt -> ())
      f.blocks;
    List.rev !errs

  let check (prog : Sil.Prog.t) : V.error list =
    let entry_errs =
      if Sil.Prog.mem_func prog prog.entry then []
      else [ V.error "program" "entry function %s not defined" prog.entry ]
    in
    let dup_errs =
      let names = Hashtbl.fold (fun name _ acc -> name :: acc) prog.funcs [] in
      let sorted = List.sort String.compare names in
      let rec dups acc = function
        | a :: (b :: _ as rest) ->
          dups (if String.equal a b && not (List.mem a acc) then a :: acc else acc) rest
        | [ _ ] | [] -> acc
      in
      List.map (fun n -> V.error "program" "function %s defined more than once" n)
        (List.rev (dups [] sorted))
    in
    entry_errs @ dup_errs @ List.concat_map (check_func prog) (Sil.Prog.functions prog)
end

(** Random programs over a small fixed vocabulary, for the
    call-structure and validator laws: direct and indirect calls, and
    [&f] in every operand position (assigned, loaded or stored through,
    as a field base, an array base or index, a dereferenced pointer, a
    call target or argument), in branch conditions and return values,
    and in [Fptr] globals.  Defects are seeded throughout: undeclared
    variables (one sharing a declared vid under another name), a
    variable redeclared with another type, aggregates in scalar
    positions, unknown globals, functions, structs, fields and labels,
    duplicate block labels, wrong arities, a shadowed function binding
    and a missing entry. *)
module Prog_gen = struct
  open QCheck.Gen
  module T = Sil.Types
  module O = Sil.Operand
  module I = Sil.Instr
  module P = Sil.Place

  let va = { O.vid = 0; vname = "a" }
  let vp = { O.vid = 1; vname = "p" }
  let vs = { O.vid = 2; vname = "s" }
  let vr = { O.vid = 3; vname = "r" }
  let decls = [ (va, T.I64); (vp, T.Ptr T.I64); (vs, T.Struct "pair"); (vr, T.Array (T.I64, 2)) ]
  let vars = [| va; vp; vs; vr; { O.vid = 0; vname = "alias" }; { O.vid = 7; vname = "ghost" } |]
  let names = [| "f0"; "f1"; "f2"; "f3"; "sys_write"; "ghost" |]
  let labels = [| "b0"; "b1"; "b2"; "nowhere" |]
  let globals = [| "g0"; "g1"; "gfp"; "gone" |]

  let operand =
    frequency
      [
        (2, map (fun n -> O.Const (Int64.of_int n)) small_nat);
        (3, map (fun v -> O.Var v) (oneofa vars));
        (1, map (fun g -> O.Global g) (oneofa globals));
        (3, map (fun f -> O.Func_addr f) (oneofa names));
        (1, return O.Null);
        (1, return (O.Cstr "s"));
      ]

  let place =
    oneof
      [
        map (fun v -> P.Lvar v) (oneofa vars);
        map (fun g -> P.Lglobal g) (oneofa globals);
        map3 (fun b s f -> P.Lfield (b, s, f)) operand (oneofl [ "pair"; "nostruct" ])
          (oneofl [ "x"; "y"; "z" ]);
        map2 (fun b i -> P.Lindex (b, i, T.I64)) operand operand;
        map (fun b -> P.Lderef b) operand;
      ]

  let rvalue =
    oneof
      [
        map (fun op -> I.Use op) operand;
        map (fun p -> I.Load p) place;
        map (fun p -> I.Addr_of p) place;
        map2 (fun a b -> I.Binop (I.Add, a, b)) operand operand;
      ]

  let target =
    frequency [ (2, map (fun f -> I.Direct f) (oneofa names)); (1, map (fun op -> I.Indirect op) operand) ]

  let instr =
    frequency
      [
        (2, map2 (fun v rv -> I.Assign (v, rv)) (oneofa vars) rvalue);
        (1, map2 (fun p v -> I.Store (p, v)) place operand);
        ( 3,
          map3
            (fun dst target args -> I.Call { dst; target; args })
            (opt (oneofa vars)) target (list_size (int_bound 3) operand) );
      ]

  let term =
    frequency
      [
        (2, map (fun l -> I.Jump l) (oneofa labels));
        (2, map3 (fun op l1 l2 -> I.Branch (op, l1, l2)) operand (oneofa labels) (oneofa labels));
        (2, map (fun op -> I.Ret (Some op)) operand);
        (1, return (I.Ret None));
        (1, return I.Halt);
      ]

  let block label =
    map2
      (fun instrs term -> { Sil.Func.label; instrs = Array.of_list instrs; term })
      (list_size (int_bound 5) instr) term

  let func fname =
    let* nblocks = int_range 1 3 in
    let* dup_label = int_bound 9 in
    let block_labels = List.init nblocks (fun i -> labels.(i)) in
    let block_labels =
      if dup_label = 0 then block_labels @ [ List.hd block_labels ] else block_labels
    in
    let* blocks = flatten_l (List.map block block_labels) in
    let* nparams = int_bound 2 in
    let* kept = list_repeat (List.length decls) (int_bound 4) in
    let* retyped = int_bound 9 in
    let params = List.filteri (fun i _ -> i < nparams) decls in
    let locals =
      List.filteri (fun i _ -> i >= nparams && List.nth kept i > 0) decls
      @ if retyped = 0 then [ (va, T.Struct "pair") ] else []
    in
    return { Sil.Func.fname; params; locals; blocks; kind = Sil.Func.App_code }

  let stub =
    {
      Sil.Func.fname = "sys_write";
      params = List.init 3 (fun i -> ({ O.vid = i; vname = Printf.sprintf "x%d" i }, T.I64));
      locals = [];
      blocks = [ { label = "entry"; instrs = [||]; term = I.Ret None } ];
      kind = Sil.Func.Syscall_stub 1;
    }

  let prog =
    let* funcs = flatten_l (List.map func [ "f0"; "f1"; "f2"; "f3" ]) in
    let* present = list_repeat 4 (int_bound 9) in
    let* shadow = int_bound 9 in
    let* entry = frequency [ (9, return "f0"); (1, return "ghost") ] in
    let* fptrs = list_size (int_bound 2) (oneofa names) in
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i (f : Sil.Func.t) -> if List.nth present i > 0 then Hashtbl.replace tbl f.fname f) funcs;
    Hashtbl.replace tbl stub.fname stub;
    if shadow = 0 then Hashtbl.add tbl "f1" (List.nth funcs 1);
    let structs = T.struct_env_create () in
    T.define_struct structs { T.sname = "pair"; fields = [ ("x", T.I64); ("y", T.I64) ] };
    let globals =
      [
        { Sil.Prog.gname = "g0"; gty = T.I64; ginit = Sil.Prog.Word 5L };
        { gname = "g1"; gty = T.I64; ginit = Sil.Prog.Zero };
      ]
      @ List.mapi
          (fun i f ->
            { Sil.Prog.gname = (if i = 0 then "gfp" else Printf.sprintf "gfp%d" i);
              gty = T.Ptr T.I64; ginit = Sil.Prog.Fptr f })
          fptrs
    in
    return { Sil.Prog.structs; globals; funcs = tbl; entry }

  let arbitrary = QCheck.make ~print:Sil.Pp.prog_to_string prog
end

(** Malformed programs, one per defect the hand-written validator tests
    exercise: unknown global, callee, variable, label and struct; wrong
    arity; a dangling jump; an aggregate used as a scalar; a shadowed
    function binding; a call result to an unknown variable. *)
let malformed_progs () =
  let i64 = Sil.Types.I64 in
  let in_main mk =
    let pb = B.program () in
    let fb = B.func pb "main" ~params:[] in
    mk pb fb;
    B.halt fb;
    B.seal fb;
    B.build pb ~entry:"main"
  in
  let ghost = { Sil.Operand.vid = 99; vname = "ghost" } in
  [
    ("unknown global", in_main (fun _ fb -> B.store fb (Sil.Place.Lglobal "missing") (Sil.Operand.const 1)));
    ("unknown callee", in_main (fun _ fb -> B.call fb "missing" []));
    ("unknown variable", in_main (fun _ fb -> B.set fb ghost (Sil.Operand.const 1)));
    ("unknown label", in_main (fun _ fb -> B.branch fb (Sil.Operand.const 1) "nowhere" "nowhere"));
    ( "arity mismatch",
      in_main (fun pb fb ->
          let g = B.func pb "g" ~params:[ ("a", i64) ] in
          B.ret g None;
          B.seal g;
          B.call fb "g" [ Sil.Operand.const 1; Sil.Operand.const 2 ]) );
    ( "unknown struct",
      in_main (fun _ fb -> B.store fb (Sil.Place.Lfield (Null, "ghost_t", "x")) (Sil.Operand.const 1)) );
    ( "dangling block",
      let pb = B.program () in
      let fb = B.func pb "main" ~params:[] in
      B.terminate fb (Sil.Instr.Jump "nowhere");
      B.seal fb;
      B.build pb ~entry:"main" );
    ( "aggregate as scalar",
      let pb = B.program () in
      B.struct_ pb "pair" [ ("a", i64); ("b", i64) ];
      let fb = B.func pb "main" ~params:[] in
      let s = B.local fb "s" (Sil.Types.Struct "pair") in
      let x = B.local fb "x" i64 in
      B.set fb x (Sil.Operand.Var s);
      B.halt fb;
      B.seal fb;
      B.build pb ~entry:"main" );
    ( "duplicate function",
      let pb = B.program () in
      let fb = B.func pb "dup" ~params:[] in
      B.ret fb None;
      B.seal fb;
      let fb = B.func pb "main" ~params:[] in
      B.halt fb;
      B.seal fb;
      let prog = B.build pb ~entry:"main" in
      Hashtbl.add prog.funcs "dup" (Sil.Prog.find_func prog "dup");
      prog );
    ( "call result to unknown variable",
      in_main (fun pb fb ->
          let c = B.func pb "callee" ~params:[] in
          B.ret c None;
          B.seal c;
          B.emit fb (Sil.Instr.Call { dst = Some ghost; target = Sil.Instr.Direct "callee"; args = [] })) );
  ]

(** The syscall dispatcher as it stood while it matched on names: each
    call resolves its number to a name through a table lookup, copies
    its arguments into a fresh six-word array, reads the path of every
    path-taking call (and [open] and [chmod] read it again), tests
    sensitivity by list membership and keeps its counts in a hash
    table.  Only three fixes are applied: a read on a connection clamps
    a negative count to 0, [lseek] refuses a negative offset with
    -EINVAL, and read, write and sendfile move at most Linux's
    MAX_RW_COUNT.  Kept as the reference the dispatch laws in
    [test_props.ml] hold {!Kernel.dispatch} to. *)
module Dispatch_ref = struct
  module Process = Kernel.Process
  module Seccomp = Kernel.Seccomp

  type t = { proc : Process.t; counts : (int, int) Hashtbl.t }

  let create proc = { proc; counts = Hashtbl.create 64 }

  let syscall_count t nr = Option.value ~default:0 (Hashtbl.find_opt t.counts nr)

  let by_number = Hashtbl.create 64

  let () = List.iter (fun (name, nr, _) -> Hashtbl.replace by_number nr name) Kernel.Syscalls.table

  let name nr =
    match Hashtbl.find_opt by_number nr with Some name -> name | None -> Printf.sprintf "sys_%d" nr

  let is_sensitive nr = List.mem nr Kernel.Syscalls.sensitive_numbers

  let charge (p : Process.t) n = Machine.charge p.machine n
  let cost (p : Process.t) = p.machine.config.cost
  let max_rw_words = 0x7fff_f000 / 8

  let sys_open (p : Process.t) (args : int64 array) =
    let path = Machine.read_string p.machine args.(0) in
    match Kernel.Vfs.lookup p.vfs path with
    | Some file -> Int64.of_int (Process.alloc_fd p (File { file; pos = 0 }))
    | None -> -2L

  let sys_read (p : Process.t) (args : int64 array) =
    let fd = Int64.to_int args.(0) in
    let count = min max_rw_words (Int64.to_int args.(2)) in
    match Process.find_fd p fd with
    | Some (File f) ->
      let n = min count (f.file.size_words - f.pos) in
      let n = max n 0 in
      f.pos <- f.pos + n;
      p.io_words_in <- p.io_words_in + n;
      charge p ((cost p).io_per_word * n);
      Int64.of_int n
    | Some (Conn c) ->
      let n = min count c.request_words in
      let n = max n 0 in
      p.io_words_in <- p.io_words_in + n;
      charge p ((cost p).io_per_word * n);
      Int64.of_int n
    | Some (Sock _) | None -> -1L

  let sys_write (p : Process.t) (args : int64 array) =
    let fd = Int64.to_int args.(0) in
    let count = min max_rw_words (max 0 (Int64.to_int args.(2))) in
    match Process.find_fd p fd with
    | Some (Conn _) ->
      p.io_words_out <- p.io_words_out + count;
      charge p ((cost p).io_per_word * count);
      Int64.of_int count
    | Some (File _) ->
      charge p ((cost p).io_per_word * count);
      Int64.of_int count
    | Some (Sock _) | None -> -1L

  let sys_sendfile (p : Process.t) (args : int64 array) =
    let count = min max_rw_words (max 0 (Int64.to_int args.(3))) in
    (match Process.find_fd p (Int64.to_int args.(1)) with
    | Some (File f) -> f.pos <- min f.file.size_words (f.pos + count)
    | Some (Sock _) | Some (Conn _) | None -> ());
    p.io_words_out <- p.io_words_out + count;
    charge p ((cost p).io_per_word * count);
    Int64.of_int count

  let sys_socket (p : Process.t) _args = Int64.of_int (Process.alloc_fd p (Sock { port = 0 }))

  let sys_bind (p : Process.t) (args : int64 array) =
    match Process.find_fd p (Int64.to_int args.(0)) with
    | Some (Sock s) ->
      s.port <- Int64.to_int args.(1);
      0L
    | Some (File _) | Some (Conn _) | None -> -1L

  let sys_listen (p : Process.t) (args : int64 array) =
    match Process.find_fd p (Int64.to_int args.(0)) with
    | Some (Sock s) ->
      Kernel.Net.listen p.net s.port;
      0L
    | Some (File _) | Some (Conn _) | None -> -1L

  let sys_accept (p : Process.t) (args : int64 array) =
    if p.serve_start_cycles = None then
      p.serve_start_cycles <- Some p.machine.stats.cycles;
    match Process.find_fd p (Int64.to_int args.(0)) with
    | Some (Sock s) -> (
      match Kernel.Net.accept p.net s.port with
      | Some conn -> Int64.of_int (Process.alloc_fd p (Conn conn))
      | None -> -1L)
    | Some (File _) | Some (Conn _) | None -> -1L

  let sys_mmap (p : Process.t) (args : int64 array) =
    let words = max 1 (Int64.to_int args.(1)) in
    Machine.alloc_heap p.machine words

  let sys_chmod (p : Process.t) (args : int64 array) =
    let path = Machine.read_string p.machine args.(0) in
    Kernel.Vfs.chmod p.vfs path (Int64.to_int args.(1))

  let execute (p : Process.t) ~sysno ~(args : int64 array) : int64 =
    let arg i = if i < Array.length args then args.(i) else 0L in
    let args6 = Array.init 6 arg in
    match name sysno with
    | "open" | "openat" -> sys_open p args6
    | "read" | "recvfrom" -> sys_read p args6
    | "write" | "sendto" -> sys_write p args6
    | "sendfile" -> sys_sendfile p args6
    | "close" ->
      Process.close_fd p (Int64.to_int args6.(0));
      0L
    | "fsync" ->
      charge p (2 * (cost p).syscall_base);
      0L
    | "lseek" -> (
      match Process.find_fd p (Int64.to_int args6.(0)) with
      | Some (File f) ->
        if Int64.compare args6.(1) 0L < 0 then -22L
        else begin
          f.pos <- Int64.to_int args6.(1);
          args6.(1)
        end
      | Some (Sock _) | Some (Conn _) | None -> -1L)
    | "stat" | "fstat" -> 0L
    | "socket" -> sys_socket p args6
    | "bind" -> sys_bind p args6
    | "listen" -> sys_listen p args6
    | "connect" -> 0L
    | "accept" | "accept4" -> sys_accept p args6
    | "mmap" -> sys_mmap p args6
    | "mprotect" | "mremap" | "remap_file_pages" -> 0L
    | "chmod" -> sys_chmod p args6
    | "setuid" ->
      p.uid <- Int64.to_int args6.(0);
      0L
    | "setgid" ->
      p.gid <- Int64.to_int args6.(0);
      0L
    | "setreuid" ->
      p.uid <- Int64.to_int args6.(1);
      0L
    | "fork" | "vfork" | "clone" ->
      let child = Process.spawn_child p in
      Int64.of_int child.next_pid
    | "execve" | "execveat" -> 0L
    | "ptrace" -> 0L
    | "exit" -> raise (Machine.Program_exit args6.(0))
    | _ -> 0L

  let dispatch t ~sysno ~(args : int64 array) : int64 =
    let p = t.proc in
    charge p (cost p).syscall_base;
    (match p.filter with
    | None -> ()
    | Some filter -> (
      charge p (cost p).seccomp_eval;
      match Seccomp.evaluate filter sysno with
      | Seccomp.Allow -> ()
      | Seccomp.Kill -> raise (Machine.Killed (Machine.Seccomp_kill { sysno }))
      | Seccomp.Trace ->
        let rip = p.machine.trap_rip in
        let prefilter = Seccomp.flow filter in
        let resolved =
          match prefilter with
          | None -> false
          | Some fa -> (
            charge p (cost p).prefilter_eval;
            match Seccomp.flow_eval fa ~sysno ~rip ~args with
            | Seccomp.Flow_resolve -> true
            | Seccomp.Flow_kill -> raise (Machine.Killed (Machine.Seccomp_kill { sysno }))
            | Seccomp.Flow_fallthrough -> false)
        in
        if not resolved then begin
          p.trap_count <- p.trap_count + 1;
          charge p (2 * (cost p).trap_context_switch);
          (match p.tracer_hook with
          | None -> ()
          | Some hook -> (
            p.tracer.cur_sysno <- sysno;
            match hook p ~sysno ~args with
            | Process.Continue -> ()
            | Process.Deny { context; detail } ->
              raise (Machine.Killed (Machine.Monitor_kill { context; detail }))));
          match prefilter with
          | Some fa -> Seccomp.flow_note_allowed fa ~rip
          | None -> ()
        end));
    Hashtbl.replace t.counts sysno (1 + syscall_count t sysno);
    let path =
      match name sysno with
      | ("execve" | "execveat" | "chmod" | "open" | "openat" | "stat")
        when Array.length args > 0 ->
        Some (Machine.read_string p.machine args.(0))
      | _ -> None
    in
    if is_sensitive sysno then Process.log_exec p ~sysno ~args ~path;
    (match p.on_syscall_executed with
    | Some hook -> hook ~sysno ~args ~path
    | None -> ());
    execute p ~sysno ~args
end

(* --- the committed artifacts' invariants ------------------------------ *)

(** One check per committed BENCH artifact.  Each takes the parsed
    document (the cross-artifact ones also the fast-path document) and
    returns the invariants it violates, each naming the artifact and the
    field; [[]] means the artifact holds.  The artifact cases run them
    on the committed files, and `make artifacts` followed by
    `git diff --exit-code` proves those are the regenerated ones. *)
module Artifacts = struct
  module J = Report.Json

  let fastpath_file = "BENCH_trap_fastpath.json"
  let static_file = "BENCH_static_pre_resolution.json"
  let parallel_file = "BENCH_parallel_monitor.json"
  let prefilter_file = "BENCH_prefilter.json"
  let fleet_file = "BENCH_fleet.json"

  let apps = [ "NGINX"; "SQLite"; "vsftpd" ]

  (* A missing or mistyped field ends its check with that violation. *)
  exception Shape of string

  let field k j =
    match J.member k j with Some v -> v | None -> raise (Shape ("missing field " ^ k))

  let typed what get k j =
    match get (field k j) with Some v -> v | None -> raise (Shape (k ^ " is not " ^ what))

  let num = typed "a number" J.to_float
  let str = typed "a string" J.to_str
  let bool = typed "a boolean" J.to_bool
  let list = typed "a list" J.to_list
  let obj = typed "an object" (function J.Obj fields -> Some fields | _ -> None)

  type sink = { file : string; mutable found : string list }

  let report s msg = s.found <- Printf.sprintf "%s: %s" s.file msg :: s.found

  let expect s ok fmt = Printf.ksprintf (fun msg -> if not ok then report s msg) fmt

  let check file body =
    let s = { file; found = [] } in
    (try body s with Shape msg -> report s msg);
    List.rev s.found

  let schema s doc want =
    expect s (str "schema" doc = want) "schema is %S, want %S" (str "schema" doc) want

  (* The rows of [results] for the three apps, one per value of [key]:
     [row app value] finds the single row. *)
  let matrix s results ~key ~values =
    expect s
      (List.length results = List.length apps * List.length values)
      "results has %d rows, want one per app and %s" (List.length results) key;
    fun app v ->
      match List.filter (fun r -> str "app" r = app && str key r = v) results with
      | [ r ] -> r
      | rs -> raise (Shape (Printf.sprintf "%d %s rows with %s %S, want 1" (List.length rs) app key v))

  (* The fast-path full-BASTION, trap-cache-on record of [app]. *)
  let cache_on fast app =
    match
      List.find_opt
        (fun r ->
          str "app" r = app
          && str "defense" r = "CET+CT+CF+AI"
          && J.member "trap_cache" r = Some (J.Bool true))
        (list "results" fast)
    with
    | Some r -> r
    | None -> raise (Shape (fastpath_file ^ " has no trap_cache:true record for " ^ app))

  (* A configuration that adds nothing to full BASTION runs exactly the
     fast-path cache-on record. *)
  let matches_cache_on s ~fast app row =
    let on = cache_on fast app in
    List.iter
      (fun k ->
        expect s (num k row = num k on) "%s off row: %s %g, but %g in %s" app k (num k row)
          (num k on) fastpath_file)
      [ "cycles"; "traps"; "syscalls"; "metric"; "overhead_pct" ]

  let fastpath doc =
    check fastpath_file (fun s ->
        schema s doc "bastion-bench/1";
        let results = list "results" doc in
        expect s (results <> []) "results is empty";
        let keyed tc =
          List.filter_map
            (fun r ->
              if J.member "trap_cache" r = Some (J.Bool tc) then
                Some ((str "app" r, str "defense" r), r)
              else None)
            results
        in
        let on = keyed true and off = keyed false in
        expect s
          (List.length on = List.length off)
          "%d trap_cache:true rows but %d trap_cache:false" (List.length on) (List.length off);
        expect s (List.length on >= 6) "%d trap_cache pairs, want at least 6" (List.length on);
        List.iter
          (fun (((app, d) as k), r) ->
            match List.assoc_opt k off with
            | None -> expect s false "%s/%s: trap_cache:true row has no trap_cache:false pair" app d
            | Some r_off ->
              expect s
                (num "cycles" r < num "cycles" r_off)
                "%s/%s: trap_cache:true cycles %g not below trap_cache:false %g" app d
                (num "cycles" r)
                (num "cycles" r_off))
          on;
        (* Each monitored run's registry snapshot agrees with its row. *)
        List.iter
          (fun ((app, d), r) ->
            let counters = field "counters" (field "metrics" r) in
            List.iter
              (fun (counter, k) ->
                expect s
                  (num counter counters = num k r)
                  "%s/%s: metrics counter %s is %g but %s is %g" app d counter
                  (num counter counters) k (num k r))
              [
                ("machine.cycles", "cycles");
                ("machine.syscalls", "syscalls");
                ("monitor.traps_checked", "traps");
                ("ptrace.calls_made", "ptrace_calls");
                ("ptrace.words_read", "ptrace_words");
                ("cache.hits", "cache_hits");
                ("cache.misses", "cache_misses");
                ("cache.hit_rate", "cache_hit_rate");
              ])
          (on @ off))

  let static ~fast doc =
    check static_file (fun s ->
        schema s doc "bastion-bench-static/2";
        let row = matrix s (list "results" doc) ~key:"config" ~values:[ "off"; "rank-only"; "full" ] in
        let slots = obj "pre_resolved_slots" doc in
        expect s
          (List.map fst slots = apps)
          "pre_resolved_slots covers %s, want %s"
          (String.concat ", " (List.map fst slots))
          (String.concat ", " apps);
        List.iter
          (fun (app, plain_constprop) ->
            let sl = field app (J.Obj slots) in
            let n k = num k sl in
            (* SCCP + taint proves strictly more AI slots static than
               plain constant propagation did. *)
            expect s
              (n "resolved" > plain_constprop)
              "%s: resolved %g slots, not above plain constprop's %g" app (n "resolved")
              plain_constprop;
            expect s
              (n "resolved" = n "plain" +. n "per_context" +. n "dead_site")
              "%s: resolved %g is not plain + per_context + dead_site (%g + %g + %g)" app
              (n "resolved") (n "plain") (n "per_context") (n "dead_site");
            expect s
              (n "tainted_pre_resolved" = 0.)
              "%s: tainted_pre_resolved %g, want 0 (taint veto broken)" app
              (n "tainted_pre_resolved");
            let off = row app "off" and rank = row app "rank-only" and full = row app "full" in
            let cycles = num "cycles" in
            matches_cache_on s ~fast app off;
            expect s
              (cycles full < cycles off)
              "%s: full cycles %g not below off %g" app (cycles full) (cycles off);
            expect s
              (cycles full <= cycles rank)
              "%s: full cycles %g above rank-only %g" app (cycles full) (cycles rank);
            (* The cheap path buys something wherever untainted slots exist. *)
            expect s
              (n "ranked_untainted" = 0. || cycles full < cycles rank)
              "%s: full cycles %g not below rank-only %g with %g ranked_untainted slots" app
              (cycles full) (cycles rank) (n "ranked_untainted");
            expect s
              (num "ai_untainted_checks" rank = num "ai_untainted_checks" full)
              "%s: ai_untainted_checks differ, rank-only %g vs full %g" app
              (num "ai_untainted_checks" rank)
              (num "ai_untainted_checks" full))
          [ ("NGINX", 3.); ("SQLite", 1.); ("vsftpd", 1.) ])

  let parallel ~fast doc =
    check parallel_file (fun s ->
        schema s doc "bastion-bench-parallel/1";
        let results = list "results" doc in
        expect s (List.length results >= 3) "%d shard counts, want at least 3" (List.length results);
        List.iter
          (fun r ->
            expect s (bool "matches_serial" r) "shards=%g: matches_serial is false" (num "shards" r))
          results;
        let speedup n =
          match List.find_opt (fun r -> num "shards" r = float_of_int n) results with
          | Some r -> num "modelled_speedup" r
          | None -> raise (Shape (Printf.sprintf "no shards=%d row" n))
        in
        expect s
          (Float.abs (speedup 1 -. 1.0) <= 1e-9)
          "shards=1: modelled_speedup %g, want exactly 1" (speedup 1);
        expect s (speedup 4 >= 2.0) "shards=4: modelled_speedup %.2f, want at least 2" (speedup 4);
        (* The serial reference is [tracees] runs of the fast-path NGINX
           full-BASTION cache-on record. *)
        let one = cache_on fast "NGINX" and tracees = num "tracees" doc in
        let serial = field "serial" doc in
        List.iter
          (fun k ->
            expect s
              (num k serial = tracees *. num k one)
              "serial.%s %g is not %g x the NGINX record's %g in %s" k (num k serial) tracees
              (num k one) fastpath_file)
          [ "cycles"; "traps" ];
        List.iter
          (fun r ->
            List.iter
              (fun c ->
                expect s
                  (J.to_float c = Some (num "cycles" one))
                  "shards=%g: a per_tracee_cycles entry is not the NGINX record's %g cycles"
                  (num "shards" r) (num "cycles" one))
              (list "per_tracee_cycles" r))
          results)

  let prefilter ~fast doc =
    check prefilter_file (fun s ->
        schema s doc "bastion-bench-prefilter/1";
        let row =
          matrix s (list "results" doc) ~key:"prefilter"
            ~values:[ "off"; "prefilter-only"; "tiered" ]
        in
        List.iter
          (fun app ->
            let off = row app "off" and tiered = row app "tiered" in
            matches_cache_on s ~fast app off;
            (* The automaton resolves the majority of benign traps, and
               tiered beats the trap-cache fast path alone. *)
            expect s
              (2. *. num "prefilter_resolved" tiered > num "traps" off)
              "%s: tiered prefilter_resolved %g of %g traps is not a majority" app
              (num "prefilter_resolved" tiered) (num "traps" off);
            let on = num "cycles" (cache_on fast app) in
            expect s
              (num "cycles" tiered < on)
              "%s: tiered cycles %g not below the cache-on %g of %s" app (num "cycles" tiered)
              on fastpath_file)
          apps;
        let uncaught = num "uncaught" (field "attack_tiers" doc) in
        expect s (uncaught = 0.) "attack_tiers.uncaught is %g, want 0" uncaught)

  (* The size floors hold for the committed sweep only; a smaller sweep
     must meet every other invariant. *)
  let fleet ?(committed = true) doc =
    check fleet_file (fun s ->
        schema s doc "bastion-fleet/2";
        let config = field "config" doc in
        if committed then begin
          expect s (num "tracees" config >= 64.) "config.tracees %g, want at least 64"
            (num "tracees" config);
          expect s (num "shards" config >= 4.) "config.shards %g, want at least 4"
            (num "shards" config)
        end;
        let capacity = num "capacity_traps_per_sec" doc in
        expect s (capacity > 0.) "capacity_traps_per_sec %g is not positive" capacity;
        expect s
          (num "capacity_bottleneck_traps_per_sec" doc < capacity)
          "capacity_bottleneck_traps_per_sec %g not below capacity_traps_per_sec %g"
          (num "capacity_bottleneck_traps_per_sec" doc)
          capacity;
        let arms = List.map (fun p -> (str "policy" p, p)) (list "policies" doc) in
        expect s
          (List.sort compare (List.map fst arms) = [ "static"; "steal" ])
          "policies are [%s], want static and steal"
          (String.concat "; " (List.map fst arms));
        List.iter
          (fun (name, p) ->
            let rs = list "results" p in
            expect s (List.length rs >= 5) "%s: %d load points, want at least 5" name
              (List.length rs);
            let loads = List.map (num "offered_traps_per_sec") rs in
            let rec increasing = function
              | a :: (b :: _ as rest) -> a < b && increasing rest
              | _ -> true
            in
            expect s (increasing loads) "%s: offered_traps_per_sec does not strictly increase" name;
            List.iter
              (fun r ->
                let at = num "load_fraction" r in
                expect s (bool "matches_serial" r) "%s at %.2fx: matches_serial is false" name at;
                List.iter
                  (fun h ->
                    let q k = num k (field h r) in
                    expect s
                      (q "p50" <= q "p99" && q "p99" <= q "p999" && q "p999" <= q "max")
                      "%s at %.2fx: %s percentiles out of order (p50 %g, p99 %g, p999 %g, max %g)"
                      name at h
                      (q "p50") (q "p99") (q "p999") (q "max"))
                  [ "queue_wait"; "e2e"; "service" ];
                expect s
                  (num "util_spread" r >= 1.0)
                  "%s at %.2fx: util_spread %g below 1" name at (num "util_spread" r))
              rs;
            match field "knee" p with
            | J.Obj _ as k ->
              ignore (str "reason" k);
              expect s
                (num "index" k >= 0. && num "index" k < float_of_int (List.length rs))
                "%s: knee.index %g outside the sweep" name (num "index" k)
            | _ -> expect s false "%s: no knee detected" name)
          arms;
        (* The headline: stealing knees beyond static pinning, with a
           lower utilisation spread at every sub-saturation point;
           stealing fires, and static never steals. *)
        let arm name =
          match List.assoc_opt name arms with
          | Some p -> p
          | None -> raise (Shape ("no " ^ name ^ " policy"))
        in
        let static = arm "static" and steal = arm "steal" in
        let knee p = num "load_fraction" (field "knee" p) in
        expect s
          (knee steal > knee static)
          "steal: knee.load_fraction %.2f not beyond the static knee %.2f" (knee steal)
          (knee static);
        let rs = list "results" static and rb = list "results" steal in
        expect s
          (List.length rb = List.length rs)
          "steal: %d load points, static has %d" (List.length rb) (List.length rs);
        List.iteri
          (fun i b ->
            match List.nth_opt rs i with
            | Some r when num "util_max" b < 1.0 ->
              expect s
                (num "util_spread" b < num "util_spread" r)
                "steal at %.2fx: util_spread %.3f not below static's %.3f"
                (num "load_fraction" b) (num "util_spread" b) (num "util_spread" r)
            | _ -> ())
          rb;
        expect s
          (List.exists (fun r -> num "steals" r > 0.) rb)
          "steal: steals is 0 at every point";
        expect s
          (List.for_all (fun r -> num "steals" r = 0.) rs)
          "static: steals is not 0 at every point")

  (* A committed artifact, parsed; the tests run in _build/default/test. *)
  let committed file =
    let path = Filename.concat ".." file in
    if not (Sys.file_exists path) then Alcotest.failf "%s missing (run make artifacts)" file;
    J.of_file path

  let holds = function [] -> () | violations -> Alcotest.fail (String.concat "\n" violations)
end
