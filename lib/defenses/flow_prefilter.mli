(** The syscall-flow pre-filter defense layer: the per-app
    syscall-transition digraph and origin (call-site class) table that
    the static flowgraph pass extracts from the SIL model, plus its
    deployment into the graph of the in-kernel automaton
    ([Kernel.Seccomp.flow_graph]) evaluated before any trap.

    The spec is location-based — a pure function of the protected
    bundle; deployment resolves locations to code addresses through the
    code image and attaches deploy-time argument knowledge from the
    deployment's metadata. *)

(** Static value knowledge about one argument position of a sensitive
    callsite: a finite benign value set (register-checkable), a dynamic
    but kernel-derived value (syscall results flowing through locals
    only — nothing to check, nothing the full path's shadow probe would
    add beyond dataflow provenance), or an opaque memory-dependent
    value only the full monitor can judge. *)
type arg_fact = Fact_set of int64 list | Fact_free | Fact_opaque

type node_spec = {
  ns_loc : Sil.Loc.t;          (** the callsite the tracee traps at *)
  ns_callee : string;          (** stub name, or ["<indirect>"] *)
  ns_sysno : int option;       (** [None] for an indirect callsite *)
  ns_facts : (int * arg_fact) list;
      (** per-position value facts for the call's arguments *)
  ns_succs : Sil.Loc.Set.t;    (** nodes that may trap immediately next *)
}

type spec = {
  sp_nodes : node_spec list;         (** sorted by location *)
  sp_starts : Sil.Loc.Set.t;         (** nodes that may trap first *)
  sp_indirect_sysnos : int list;
      (** sensitive numbers reachable through an indirect callsite *)
}

type stats = {
  st_nodes : int;
  st_edges : int;
  st_starts : int;
  st_indirect_nodes : int;
}

val stats : spec -> stats
val pp_stats : Format.formatter -> stats -> unit

(** [deploy s ~layout ~info] builds the in-kernel automaton's graph,
    which every session of a deployment shares
    ({!Kernel.Seccomp.flow_create} starts a walk over it).
    [info ~addr ~sysno] classifies the AI-checked argument positions of
    the callsite at [addr] from the deployment's metadata ([`Pin c] a
    compiler-pinned constant, [`Scalar] a dynamic register-visible
    value, [`Pointer] a checked pointer seccomp can never verify);
    [None] means no metadata binds that syscall there.  Register checks
    come from pins and [Fact_set] facts; a node is tiered-resolvable
    when every AI position is checked or kernel-derived. *)
val deploy :
  spec ->
  layout:Machine.Layout.t ->
  info:
    (addr:int64 ->
     sysno:int option ->
     (int * [ `Pin of int64 | `Scalar | `Pointer ]) list option) ->
  Kernel.Seccomp.flow_graph
