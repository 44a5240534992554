(** Static extraction of the syscall-flow digraph: which sensitive
    syscall can trap immediately after which, from which call-site
    class, on some benign execution — the spec behind the seccomp-stage
    pre-filter ([Defenses.Flow_prefilter]).

    A grammar-style interprocedural FIRST/FOLLOW computation over the
    instrumented program: events are sensitive callsites (direct calls
    to sensitive stubs, plus indirect callsites when a sensitive stub
    is address-taken), FOLLOW sets become the automaton's edges, and
    FIRST of the entry function its start states.  Everything
    over-approximates: extra edges only cost precision, never
    soundness. *)

val extract : Bastion.Api.protected -> Defenses.Flow_prefilter.spec

(** [deploy spec d] resolves the spec against the deployment's code
    image and metadata: the automaton graph every session of [d]
    shares. *)
val deploy :
  Defenses.Flow_prefilter.spec -> Bastion.Api.deployment -> Kernel.Seccomp.flow_graph

(** [attach ~mode graph ~monitor ~process] starts a fresh walk over
    [graph] in [mode] and installs it on the monitor and the process's
    seccomp filter.  Returns the session's automaton. *)
val attach :
  mode:Kernel.Seccomp.flow_mode ->
  Kernel.Seccomp.flow_graph ->
  monitor:Bastion.Monitor.t ->
  process:Kernel.Process.t ->
  Kernel.Seccomp.flow_automaton
