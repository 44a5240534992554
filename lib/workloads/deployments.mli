(** The deployment cache: every program the load drivers and the attack
    runner deploy is compiled once per process, as BASTION compiles a
    binary once and its monitor loads the metadata once at start-up
    (§7.1).

    One table, behind one lock, keyed exactly by program identity ×
    filesystem scope × pre-resolution.  An entry's parts are built
    under the lock on first request, and only then:
    - the protected bundle ({!Bastion.Api.protect}); the pre-resolved
      entry enriches the plain entry's bundle into a fresh one, so the
      compile pass runs once per program and scope and the plain
      bundle is never mutated;
    - the code image of the bundle's instrumented program, built once
      per program and scope and shared across pre-resolution
      (enrichment keeps the instrumented program);
    - its deployment ({!Bastion.Api.deploy} over that image:
      post-layout metadata and check image);
    - the syscall-flow spec, extracted once per program and scope and
      shared across pre-resolution (extraction reads only fields that
      enrichment keeps);
    - that spec's graph deployed on the entry's deployment (its pinned
      constants differ with pre-resolution);
    - the original program and its code image, for unprotected runs.

    Nothing in an entry is written after it is built, so sessions on
    several domains read the parts without the lock, and the first use
    of a key is safe from any domain: each part builds exactly once.
    Explicit bundles are never cached. *)

(** A program's exact identity: an application model with every
    parameter field, or an attack victim by its name (victims are
    physically shared by name, and each builds deterministically).  No
    model key equals a victim key. *)
type id =
  | Nginx of Nginx_model.params
  | Sqlite of Sqlite_model.params
  | Vsftpd of Vsftpd_model.params
  | Victim of string

(** A program to deploy: its identity and its build.  The cache forces
    [prog] only under its lock: an entry keeps the [prog] of the source
    that created it and forces it when a part needs the program, so a
    later source with the same [id] is never built.  The app models
    compile through the registered lint gate
    ([Api.protect ~validate:true]); victims do not, because a sensitive
    callsite only their attack reaches is dead on every benign run by
    design. *)
type source = { id : id; prog : Sil.Prog.t Lazy.t }

(** [source]'s program, forced under the lock: an app's program is one
    suspension that runs on several domains may force at once. *)
val program : source -> Sil.Prog.t

(** The cached protected bundle (compiling on first use).  Shared with
    every later run: read it, never mutate it. *)
val bundle : source -> fs:bool -> pre_resolve:bool -> Bastion.Api.protected

(** The original program and its code image, for an unprotected run:
    the program the entry's bundle was compiled from. *)
val unprotected : source -> fs:bool -> Sil.Prog.t * Machine.Layout.t

(** Stage a monitored session: the deployment — the cached entry's, or
    with [bundle] one of its own (the differential replay seam; it
    bypasses the lint gate on purpose) — then {!Bastion.Api.start},
    then, with [prefilter], the syscall-flow pre-filter attached in
    that mode on the deployment's graph (an explicit bundle's graph is
    extracted and deployed from it). *)
val stage :
  ?bundle:Bastion.Api.protected -> ?recorder:Obs.Recorder.t ->
  ?prefilter:Kernel.Seccomp.flow_mode ->
  machine_config:Machine.config -> monitor_config:Bastion.Monitor.config ->
  source -> fs:bool -> pre_resolve:bool -> Bastion.Api.session
