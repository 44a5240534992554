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

  (* The decision as [(d_shard, d_from)]. *)
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
      | Pool.Least_loaded -> if quiescent then least_loaded t ~prefer:current else current
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
    (target, if migrated then Some current else None)
end
