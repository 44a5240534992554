(** Public entry points of the BASTION library.

    Compile side: {!protect} runs the whole pass (call-type analysis,
    control-flow metadata, argument-integrity analysis,
    instrumentation).  Runtime side: {!launch} boots the instrumented
    program with the runtime library wired in and the monitor attached;
    {!deploy} builds the post-layout metadata once and {!start} boots
    sessions over it.

    {[
      let protected = Api.protect prog in
      let session = Api.launch protected () in
      match Machine.run session.machine with
      | Machine.Exited _ -> (* clean *) ...
      | Machine.Faulted f -> (* killed by a defense *) ...
    ]} *)

module Syscalls = Kernel.Syscalls

(** Everything the compiler pass produced for a program. *)
type protected = {
  original : Sil.Prog.t;
  inst : Instrument.t;              (** instrumented program + metadata *)
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
          1-context pre-resolution, matched at trap time against the
          caller frame's callsite; empty by default *)
  slot_ranks : (int, (int * bool) list) Hashtbl.t;
      (** callsite id -> (position, tainted): per-slot attacker-reach
          rank from the taint analysis; empty by default *)
  dead_sites : (int, unit) Hashtbl.t;
      (** callsite ids provably unreachable on benign executions; the
          monitor denies any trap there; empty by default *)
}

(** The metadata-soundness gate rejected the bundle; one message per
    diagnostic, in the validator's deterministic order. *)
exception Validation_failed of string list

(** Install (or clear) the metadata-soundness validator that
    [protect ~validate:true] runs.  The linter lives in the analysis
    library above this one, so it registers itself here:
    [Bastion_analysis.Lint.register_api_validator] is the canonical
    caller.  Returning [[]] means sound. *)
val set_validator : (protected -> string list) option -> unit

(** Run the BASTION compiler pass.  [protect_filesystem] extends the
    sensitive set with the filesystem syscalls (§11.2); [validate]
    (default off) runs the registered metadata-soundness validator over
    the finished bundle, so protected programs are sound by
    construction.
    @raise Invalid_argument if the program is malformed, or if
    [validate] is requested with no validator registered.
    @raise Validation_failed if the validator reports diagnostics. *)
val protect : ?protect_filesystem:bool -> ?validate:bool -> Sil.Prog.t -> protected

(** A deployed protection: machine + kernel process + runtime library +
    attached monitor. *)
type session = {
  machine : Machine.t;
  process : Kernel.Process.t;
  runtime : Runtime.t;
  monitor : Monitor.t;
}

(** Boot the instrumented program, wire the ctx_* runtime, build
    post-layout metadata, seed the shadow from the loader-visible
    globals and attach the monitor.  [recorder] wires the flight
    recorder through the whole pipeline; observation never charges
    modelled cycles. *)
val launch :
  ?machine_config:Machine.config ->
  ?monitor_config:Monitor.config ->
  ?recorder:Obs.Recorder.t ->
  protected ->
  unit ->
  session

(** A bundle's post-layout metadata, built once — what the monitor
    loads at start-up (§7.1) — for any number of {!start}s.  The
    metadata is never mutated after {!deploy}; its fingerprint is
    rendered at most once.  Safe to share across domains.  Only
    {!deploy} builds one, so [meta] is always [bundle]'s. *)
type deployment = private { bundle : protected; meta : Metadata.t }

(** Build the bundle's post-layout metadata on a machine that never
    runs. *)
val deploy : protected -> deployment

(** {!launch} with the deployment's metadata: boot and wire exactly as
    {!launch} does, re-intern the metadata's string constants at the
    addresses it holds ({!Metadata.load}) and attach a monitor over it.
    A session started from a deployment equals one launched from its
    bundle, cycle for cycle. *)
val start :
  ?machine_config:Machine.config ->
  ?monitor_config:Monitor.config ->
  ?recorder:Obs.Recorder.t ->
  deployment ->
  unit ->
  session

(** The unprotected baseline: same machine and kernel, no filter, no
    instrumentation. *)
val launch_unprotected :
  ?machine_config:Machine.config -> Sil.Prog.t -> Machine.t * Kernel.Process.t

(** Table 5 statistics. *)
type instrumentation_stats = {
  total_callsites : int;
  direct_callsites : int;
  indirect_callsites : int;
  sensitive_callsites : int;
  sensitive_indirect : int;   (** sensitive syscalls callable indirectly *)
  write_mem_sites : int;
  bind_mem_sites : int;
  bind_const_sites : int;
}

val total_instrumentation_sites : instrumentation_stats -> int
val stats : protected -> instrumentation_stats
