(** A seccomp-BPF-style system-call filter.

    BASTION installs ALLOW for used non-sensitive calls, KILL for
    not-callable calls and TRACE for sensitive calls (§7.1); the plain
    filtering baseline uses the same engine with an allowlist. *)

type action = Allow | Kill | Trace

val action_name : action -> string

(** {1 The syscall-flow pre-filter}

    An SFIP/SFP-style automaton over sensitive-syscall sequences and
    origins, evaluated at seccomp stage before any trap is delivered.
    Nodes are code addresses of sensitive callsites; an edge says the
    target's syscall may immediately follow the source's on some benign
    path.  Only the syscall number, the callsite address and the
    register-file arguments are visible — never tracee memory. *)

(** [Flow_tiered] fast-paths flow-consistent constant-argument calls
    and falls through to the full monitor on any miss (a miss is never
    a verdict); [Flow_standalone] is the pre-filter as the whole
    defense — a miss kills. *)
type flow_mode = Flow_tiered | Flow_standalone

val flow_mode_name : flow_mode -> string

type flow_node = {
  fn_rip : int64;
  fn_sysno : int option;
      (** [None] for an indirect callsite (any indirectly-callable
          sensitive number may trap there) *)
  fn_checks : (int * int64 list) list;
      (** register-visible constraints: the argument at each position
          must carry one of the listed values (a singleton is a pinned
          constant, a larger set the statically-possible value set) *)
  fn_resolvable : bool;
      (** every AI-checked argument position is constrained by a check
          or provably kernel-derived: tiered mode may resolve without
          fetching tracee state *)
}

(** A deployed program's automaton graph: its nodes, edges, start
    nodes and the sensitive numbers an indirect callsite may invoke.
    Built once per deployment and never written afterwards, so every
    session of the deployment, on any domain, walks the same one. *)
type flow_graph

(** [flow_graph ~nodes ~edges ~starts ~indirect_sysnos]; an edge is
    [(src, dst)].
    @raise Invalid_argument if an edge's source is not a node. *)
val flow_graph :
  nodes:flow_node list -> edges:(int64 * int64) list -> starts:int64 list ->
  indirect_sysnos:int list -> flow_graph

val flow_node_count : flow_graph -> int
val flow_edge_count : flow_graph -> int

type flow_state = Fs_start | Fs_at of int64 | Fs_any

(** One session's walk over a graph: its mode, position, counters and
    observation hook. *)
type flow_automaton = {
  fa_graph : flow_graph;
  fa_mode : flow_mode;
  mutable fa_state : flow_state;
  mutable fa_resolved : int;
  mutable fa_fallthroughs : int;
  mutable fa_kills : int;
  mutable fa_on_resolve : (sysno:int -> rip:int64 -> unit) option;
}

(** A fresh walk over [graph]: at [Fs_start], every count zero, no
    hook. *)
val flow_create : mode:flow_mode -> flow_graph -> flow_automaton

type flow_decision = Flow_resolve | Flow_fallthrough | Flow_kill

(** One automaton step for a sensitive syscall about to trap (the
    kernel charges [Cost.prefilter_eval] per step). *)
val flow_eval :
  flow_automaton -> sysno:int -> rip:int64 -> args:Machine.Args.t -> flow_decision

(** The full monitor allowed a trap the automaton did not resolve:
    re-synchronise on its callsite. *)
val flow_note_allowed : flow_automaton -> rip:int64 -> unit

(** (resolved, fallthroughs, kills). *)
val flow_stats : flow_automaton -> int * int * int

(** {1 The filter} *)

type filter

(** [create ~default ()] makes an empty filter; [default] (default
    [Allow]) applies to syscalls without an explicit rule. *)
val create : ?default:action -> unit -> filter

val set_rule : filter -> int -> action -> unit

(** The rule that would apply, without counting an evaluation. *)
val rule : filter -> int -> action

(** Evaluate the filter for one invocation (counts the evaluation; the
    kernel charges its cycle cost separately). *)
val evaluate : filter -> int -> action

val evaluations : filter -> int

(** Allowlist: listed syscalls allowed, everything else killed. *)
val allowlist : int list -> filter

(** Install (or clear) the syscall-flow pre-filter on this filter. *)
val set_flow : filter -> flow_automaton option -> unit

(** The installed syscall-flow pre-filter, if any. *)
val flow : filter -> flow_automaton option

(** An independent copy (seccomp inheritance across fork/clone); the
    flow automaton is shared with the parent. *)
val copy : filter -> filter
