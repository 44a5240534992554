(** Public entry points of the BASTION library.

    Compile side: {!protect} runs the whole pass (call-type analysis,
    control-flow metadata, argument-integrity analysis,
    instrumentation).  Runtime side: {!deploy} builds the program's code
    image, post-layout metadata and the monitor's check image once,
    {!start} boots sessions over them with the runtime library wired in
    and the monitor attached, and {!launch} is [start (deploy p)].

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

(** What the processes of one protected program share, each part
    built once: the instrumented program's code image, the bundle's
    post-layout metadata, which the monitor loads at start-up (§7.1),
    and the monitor's check image decoded from it.  None is mutated
    after {!deploy}; the metadata's fingerprint is rendered at most
    once.  Safe to share across domains.  Only {!deploy} builds one, so
    [layout], [meta] and [image] are always [bundle]'s. *)
type deployment = private {
  bundle : protected;
  layout : Machine.Layout.t;  (** [bundle.inst.iprog]'s code image *)
  meta : Metadata.t;
  image : Monitor.image;  (** [Monitor.decode meta layout] *)
}

(** Build the bundle's code image, its post-layout metadata on a
    machine of that image that never runs, and the check image.
    [layout], when given, is the code image of the bundle's
    instrumented program, built once and shared by every deployment of
    that program.
    @raise Invalid_argument if [layout] was built from another
    program. *)
val deploy : ?layout:Machine.Layout.t -> protected -> deployment

(** Boot a session: a fresh machine on the deployment's code image,
    the kernel process, the ctx_* runtime wired in and its shadow
    seeded from the loader-visible globals, the metadata's string
    constants re-interned at the addresses it holds
    ({!Metadata.load}), and the monitor attached over the metadata and
    check image.  Every session of one deployment shares its images and
    metadata and runs the same, cycle for cycle, as a {!launch} under
    the same configuration.  [recorder] wires the flight
    recorder through the whole pipeline; observation never charges
    modelled cycles. *)
val start :
  ?machine_config:Machine.config ->
  ?monitor_config:Monitor.config ->
  ?recorder:Obs.Recorder.t ->
  deployment ->
  unit ->
  session

(** [start (deploy p)]: a session with a deployment of its own, which
    dies with it. *)
val launch :
  ?machine_config:Machine.config ->
  ?monitor_config:Monitor.config ->
  ?recorder:Obs.Recorder.t ->
  protected ->
  unit ->
  session

(** The unprotected baseline: same machine and kernel, no filter, no
    instrumentation.  [layout], when given, is [prog]'s code image. *)
val launch_unprotected :
  ?machine_config:Machine.config ->
  ?layout:Machine.Layout.t ->
  Sil.Prog.t ->
  Machine.t * Kernel.Process.t

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
