(* Public entry points of the BASTION library: compile-side protection
   (analysis + instrumentation + metadata) and runtime deployment
   (monitor attached to a booted process).

   Typical use:
   {[
     let protected = Api.protect prog in
     let session = Api.launch protected () in
     let outcome = Machine.run session.machine in
     ...
   ]} *)

module Syscalls = Kernel.Syscalls

type protected = {
  original : Sil.Prog.t;
  inst : Instrument.t;
  analysis : Arg_analysis.t;
  calltype : Calltype.t;
  cfg : Cfg_analysis.t;
  sensitive_numbers : int list;
  original_callgraph : Sil.Callgraph.t;
  pre_resolved : (int, (int * int64) list) Hashtbl.t;
      (** callsite id -> (position, provably constant value); filled by
          the static pre-resolution pass (lib/analysis), empty by
          default *)
  pre_resolved_ctx : (int, (int * int * int64) list) Hashtbl.t;
      (** callsite id -> (position, caller callsite id, value):
          1-context pre-resolution — the argument is a parameter whose
          value is a different provable constant per caller, matched at
          trap time against the next frame's callsite *)
  slot_ranks : (int, (int * bool) list) Hashtbl.t;
      (** callsite id -> (position, tainted): per-slot attacker-reach
          rank from the taint analysis; untainted AI slots may verify
          through the cheap single-probe path *)
  dead_sites : (int, unit) Hashtbl.t;
      (** callsite ids the conditional-constant analysis proves no
          benign execution can reach: the monitor denies any trap
          there outright *)
}

exception Validation_failed of string list

(* The metadata-soundness validator is registered by the analysis
   library (Bastion_analysis.Lint lives *above* this one, so the gate
   is a hook, not a direct call).  [protect ~validate:true] refuses to
   hand out a bundle the registered validator rejects. *)
let validator : (protected -> string list) option ref = ref None

let set_validator f = validator := f

let run_validator (p : protected) =
  match !validator with
  | None ->
    invalid_arg
      "Api.protect: ~validate:true but no metadata validator is registered \
       (call Bastion_analysis.Lint.register_api_validator, or link a library \
       that does)"
  | Some f -> (
    match f p with [] -> () | msgs -> raise (Validation_failed msgs))

(** Run the full BASTION compiler pass over a program.
    [protect_filesystem] extends the sensitive set with the filesystem
    syscalls (§11.2).  [validate] runs the registered metadata-soundness
    validator over the finished bundle and raises {!Validation_failed}
    on any diagnostic — protected programs are then sound by
    construction. *)
let protect ?(protect_filesystem = false) ?(validate = false) (prog : Sil.Prog.t) :
    protected =
  Sil.Validate.check_exn prog;
  let original_callgraph = Sil.Callgraph.build prog in
  let sensitive_numbers =
    Syscalls.sensitive_numbers
    @ (if protect_filesystem then Syscalls.filesystem_numbers else [])
  in
  let analysis = Arg_analysis.analyze prog original_callgraph ~sensitive_numbers in
  let inst = Instrument.run prog analysis in
  Sil.Validate.check_exn inst.iprog;
  (* Call-type and control-flow metadata are derived from the
     instrumented program: its locations are what the binary contains. *)
  let icg = Sil.Callgraph.build inst.iprog in
  let calltype = Calltype.analyze inst.iprog icg in
  let cfg = Cfg_analysis.analyze inst.iprog icg ~sensitive_numbers in
  let p =
    { original = prog; inst; analysis; calltype; cfg; sensitive_numbers;
      original_callgraph; pre_resolved = Hashtbl.create 1;
      pre_resolved_ctx = Hashtbl.create 1; slot_ranks = Hashtbl.create 1;
      dead_sites = Hashtbl.create 1 }
  in
  if validate then run_validator p;
  p

type session = {
  machine : Machine.t;
  process : Kernel.Process.t;
  runtime : Runtime.t;
  monitor : Monitor.t;
}

(* A deployment is what a program's processes share: its code image,
   the bundle's post-layout metadata, which the monitor loads at
   start-up (§7.1), and the monitor's check image decoded from it, each
   built once.  The code image is a pure function of the program,
   [Metadata.load] replays the string interning [Metadata.build] did,
   so the metadata holds on each fresh machine as if built there, and
   the check image does not depend on the monitor configuration. *)
type deployment = {
  bundle : protected;
  layout : Machine.Layout.t;
  meta : Metadata.t;
  image : Monitor.image;
}

(** Build (or take) a bundle's code image, its post-layout metadata on
    a machine of that image that never runs, and the check image. *)
let deploy ?layout (p : protected) : deployment =
  let layout =
    match layout with
    | None -> Machine.Layout.build p.inst.iprog
    | Some l when Machine.Layout.program l == p.inst.iprog -> l
    | Some _ -> invalid_arg "Api.deploy: the layout belongs to another program"
  in
  let meta =
    Metadata.build ~calltype:p.calltype ~cfg:p.cfg ~analysis:p.analysis ~inst:p.inst
      ~pre_resolved:p.pre_resolved ~pre_resolved_ctx:p.pre_resolved_ctx
      ~slot_ranks:p.slot_ranks ~dead_sites:p.dead_sites
      (Machine.create ~layout p.inst.iprog)
  in
  { bundle = p; layout; meta; image = Monitor.decode meta layout }

(** The one session wiring: boot the instrumented program on a fresh
    machine of the deployment's image, wire the runtime library, load
    the metadata and attach the monitor.  [recorder] wires the flight
    recorder through the whole pipeline (runtime intrinsics, monitor
    phase spans, legacy-counter probes); observation never charges
    modelled cycles. *)
let start ?(machine_config = Machine.default_config)
    ?(monitor_config = Monitor.default_config) ?recorder (d : deployment) () : session =
  let machine = Machine.create ~config:machine_config ~layout:d.layout d.bundle.inst.iprog in
  let process = Kernel.boot machine in
  let runtime = Runtime.create () in
  Runtime.install runtime machine;
  Runtime.seed_globals runtime machine;
  (match recorder with
  | Some r -> Runtime.attach_recorder runtime r
  | None -> ());
  Metadata.load d.meta machine;
  let monitor =
    Monitor.create ?recorder ~meta:d.meta ~image:d.image ~runtime ~config:monitor_config
      machine
  in
  Monitor.attach monitor process;
  { machine; process; runtime; monitor }

let launch ?machine_config ?monitor_config ?recorder p () =
  start ?machine_config ?monitor_config ?recorder (deploy p) ()

(** Launch without any BASTION protection (the unprotected baseline):
    same machine and kernel, no filter, no instrumentation. *)
let launch_unprotected ?(machine_config = Machine.default_config) ?layout
    (prog : Sil.Prog.t) : Machine.t * Kernel.Process.t =
  let machine = Machine.create ~config:machine_config ?layout prog in
  let process = Kernel.boot machine in
  (machine, process)

(* ------------------------------------------------------------------ *)
(* Table 5 statistics                                                  *)

type instrumentation_stats = {
  total_callsites : int;
  direct_callsites : int;
  indirect_callsites : int;
  sensitive_callsites : int;
  sensitive_indirect : int;
  write_mem_sites : int;
  bind_mem_sites : int;
  bind_const_sites : int;
}

let total_instrumentation_sites s =
  s.write_mem_sites + s.bind_mem_sites + s.bind_const_sites

let stats (p : protected) : instrumentation_stats =
  let cg_stats = Sil.Callgraph.stats p.original_callgraph in
  let sensitive_callsites =
    List.length
      (List.filter
         (fun (cs : Sil.Callgraph.callsite) ->
           match cs.cs_target with
           | Sil.Instr.Direct callee -> (
             match Hashtbl.find_opt p.original.funcs callee with
             | Some f -> (
               match Sil.Func.syscall_number f with
               | Some nr -> List.mem nr Syscalls.sensitive_numbers
               | None -> false)
             | None -> false)
           | Sil.Instr.Indirect _ -> false)
         p.original_callgraph.callsites)
  in
  {
    total_callsites = cg_stats.total_callsites;
    direct_callsites = cg_stats.direct_callsites;
    indirect_callsites = cg_stats.indirect_count;
    sensitive_callsites;
    sensitive_indirect =
      Calltype.sensitive_indirect_count p.calltype
        ~sensitive_numbers:Syscalls.sensitive_numbers;
    write_mem_sites = p.inst.counts.write_mem;
    bind_mem_sites = p.inst.counts.bind_mem;
    bind_const_sites = p.inst.counts.bind_const;
  }
