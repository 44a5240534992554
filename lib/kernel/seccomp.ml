(* A seccomp-BPF-style system-call filter.

   The BASTION monitor installs a filter that returns
   SECCOMP_RET_ALLOW for non-sensitive calls, SECCOMP_RET_KILL for
   not-callable calls and SECCOMP_RET_TRACE for directly/indirectly
   callable sensitive calls (§7.1).  The plain system-call-filtering
   baseline uses the same engine with an allowlist policy. *)

type action = Allow | Kill | Trace

let action_name = function Allow -> "ALLOW" | Kill -> "KILL" | Trace -> "TRACE"

(* ------------------------------------------------------------------ *)
(* The syscall-flow pre-filter (SFIP/SFP-style): a statically-extracted
   automaton over sensitive-syscall *sequences* and *origins*, evaluated
   at seccomp stage, before any trap is delivered.  Nodes are the code
   addresses of sensitive callsites; an edge n1 -> n2 says the syscall
   at n2 may immediately follow the one at n1 on some benign path.

   Two deployment modes:
   - [Flow_tiered]: the automaton only *fast-paths*.  A trap whose
     (prev, origin, syscall) edge is in the automaton and whose
     arguments are statically pinned constants resolves at seccomp
     cost; anything else falls through to the full monitor.  A miss is
     never a verdict.
   - [Flow_standalone]: the automaton *is* the defense (the SFIP
     baseline): a flow-consistent call is allowed without a trap, a
     miss kills.  This is the ablation's "prefilter-only" row and the
     cheap-defense column of the attack matrix. *)

type flow_mode = Flow_tiered | Flow_standalone

let flow_mode_name = function
  | Flow_tiered -> "tiered"
  | Flow_standalone -> "prefilter-only"

(** One automaton node: a sensitive callsite the program can trap at.
    [fn_sysno] is the syscall invoked there ([None] for an indirect
    callsite, which may invoke any indirectly-callable sensitive
    number).  [fn_checks] are register-visible argument constraints:
    position [pos] must carry one of the listed values (a singleton is
    a pinned constant; a larger set is the statically-possible value
    set of that argument).  [fn_resolvable] says every AI-checked
    argument position is either constrained that way or provably
    kernel-derived, so the tiered mode may resolve the call without
    fetching tracee state. *)
type flow_node = {
  fn_rip : int64;
  fn_sysno : int option;
  fn_checks : (int * int64 list) list;
  fn_resolvable : bool;
}

(* The graph is what a deployment's sessions share: filled by
   [flow_graph] and never written afterwards, so sessions on several
   domains may read it at once. *)
type flow_graph = {
  fg_nodes : (int64, flow_node * (int64, unit) Hashtbl.t) Hashtbl.t;
      (** each node with its successors *)
  fg_starts : (int64, unit) Hashtbl.t;
  fg_indirect_sysnos : (int, unit) Hashtbl.t;
      (** sensitive numbers invocable through an indirect callsite *)
}

let set_of keys =
  let tbl = Hashtbl.create (max 1 (List.length keys)) in
  List.iter (fun k -> Hashtbl.replace tbl k ()) keys;
  tbl

let flow_graph ~nodes ~edges ~starts ~indirect_sysnos =
  let fg_nodes = Hashtbl.create 64 in
  List.iter
    (fun (n : flow_node) -> Hashtbl.replace fg_nodes n.fn_rip (n, Hashtbl.create 4))
    nodes;
  List.iter
    (fun (src, dst) ->
      match Hashtbl.find_opt fg_nodes src with
      | Some (_, succs) -> Hashtbl.replace succs dst ()
      | None -> invalid_arg "Seccomp.flow_graph: edge from an unknown node")
    edges;
  { fg_nodes; fg_starts = set_of starts; fg_indirect_sysnos = set_of indirect_sysnos }

let flow_node_count g = Hashtbl.length g.fg_nodes

let flow_edge_count g =
  Hashtbl.fold (fun _ (_, succs) acc -> acc + Hashtbl.length succs) g.fg_nodes 0

(** Automaton position: before the first sensitive event, at a known
    node, or desynchronised ([Fs_any]: a full-path verdict allowed an
    event the automaton could not track; every edge check passes until
    it re-synchronises at the next known node). *)
type flow_state = Fs_start | Fs_at of int64 | Fs_any

(* A session's walk over a deployment's graph: everything here is the
   session's own. *)
type flow_automaton = {
  fa_graph : flow_graph;
  fa_mode : flow_mode;
  mutable fa_state : flow_state;
  mutable fa_resolved : int;       (** calls resolved without a trap *)
  mutable fa_fallthroughs : int;   (** sensitive traps passed to the full path *)
  mutable fa_kills : int;          (** standalone-mode flow violations *)
  mutable fa_on_resolve : (sysno:int -> rip:int64 -> unit) option;
      (** observation hook (flight recorder); never charges cycles *)
}

let flow_create ~mode graph =
  {
    fa_graph = graph;
    fa_mode = mode;
    fa_state = Fs_start;
    fa_resolved = 0;
    fa_fallthroughs = 0;
    fa_kills = 0;
    fa_on_resolve = None;
  }

(** Is the transition current-state -> [rip] an edge of the graph? *)
let flow_edge_ok fa rip =
  match fa.fa_state with
  | Fs_any -> true
  | Fs_start -> Hashtbl.mem fa.fa_graph.fg_starts rip
  | Fs_at prev -> (
    match Hashtbl.find_opt fa.fa_graph.fg_nodes prev with
    | Some (_, succs) -> Hashtbl.mem succs rip
    | None -> false)

let flow_checks_ok (node : flow_node) (args : Machine.Args.t) =
  List.for_all
    (fun (pos, allowed) ->
      pos < Machine.Args.length args
      && List.exists (Int64.equal (Machine.Args.get args pos)) allowed)
    node.fn_checks

type flow_decision = Flow_resolve | Flow_fallthrough | Flow_kill

(** One automaton step for a sensitive syscall about to trap.  Only
    [sysno], the callsite address and the register-file arguments are
    visible — exactly what a seccomp program sees; no tracee memory is
    touched.  In tiered mode a miss is always [Flow_fallthrough] (the
    pre-filter never decides an attack); in standalone mode a miss is
    [Flow_kill]. *)
let flow_eval fa ~sysno ~rip ~(args : Machine.Args.t) : flow_decision =
  let miss () =
    match fa.fa_mode with
    | Flow_tiered ->
      fa.fa_fallthroughs <- fa.fa_fallthroughs + 1;
      Flow_fallthrough
    | Flow_standalone ->
      fa.fa_kills <- fa.fa_kills + 1;
      Flow_kill
  in
  let resolve node =
    fa.fa_resolved <- fa.fa_resolved + 1;
    fa.fa_state <- Fs_at node.fn_rip;
    (match fa.fa_on_resolve with Some f -> f ~sysno ~rip | None -> ());
    Flow_resolve
  in
  match Hashtbl.find_opt fa.fa_graph.fg_nodes rip with
  | None -> miss ()
  | Some (node, _) ->
    let sysno_ok =
      match node.fn_sysno with
      | Some nr -> nr = sysno
      | None -> Hashtbl.mem fa.fa_graph.fg_indirect_sysnos sysno
    in
    if not (sysno_ok && flow_edge_ok fa rip) then miss ()
    else begin
      match fa.fa_mode with
      | Flow_standalone ->
        (* SFP-style in-kernel argument check: positions with a
           statically-known value set must carry one of its values. *)
        if flow_checks_ok node args then resolve node else miss ()
      | Flow_tiered ->
        if node.fn_resolvable && flow_checks_ok node args then resolve node
        else begin
          fa.fa_fallthroughs <- fa.fa_fallthroughs + 1;
          Flow_fallthrough
        end
    end

(** The full monitor allowed a trap the automaton did not resolve:
    re-synchronise.  A known node pins the position exactly; an unknown
    callsite desynchronises to [Fs_any]. *)
let flow_note_allowed fa ~rip =
  if Hashtbl.mem fa.fa_graph.fg_nodes rip then fa.fa_state <- Fs_at rip
  else fa.fa_state <- Fs_any

let flow_stats fa = (fa.fa_resolved, fa.fa_fallthroughs, fa.fa_kills)

(* ------------------------------------------------------------------ *)
(* The filter                                                          *)

type filter = {
  rules : Bytes.t;
      (** one byte per number below [Syscalls.count]: 0 where no rule
          is set, else the rule's [action_code] *)
  mutable other_rules : (int * action) list;  (** rules for numbers outside that range *)
  default : action;
  mutable evaluations : int;
  mutable flow : flow_automaton option;
      (** the installed syscall-flow pre-filter, if any *)
}

let action_code = function Allow -> '\001' | Kill -> '\002' | Trace -> '\003'

let create ?(default = Allow) () =
  { rules = Bytes.make Syscalls.count '\000'; other_rules = []; default; evaluations = 0;
    flow = None }

let set_rule filter nr action =
  if Syscalls.in_range nr then Bytes.set filter.rules nr (action_code action)
  else filter.other_rules <- (nr, action) :: List.remove_assoc nr filter.other_rules

let rule filter nr =
  if Syscalls.in_range nr then
    match Bytes.get filter.rules nr with
    | '\001' -> Allow
    | '\002' -> Kill
    | '\003' -> Trace
    | _ -> filter.default
  else Option.value ~default:filter.default (List.assoc_opt nr filter.other_rules)

(** Evaluate the filter for a syscall number (charges nothing itself;
    the kernel charges [Cost.seccomp_eval] per evaluation). *)
let evaluate filter nr =
  filter.evaluations <- filter.evaluations + 1;
  rule filter nr

let evaluations filter = filter.evaluations

(** Build an allowlist filter: listed syscalls allowed, others killed. *)
let allowlist numbers =
  let f = create ~default:Kill () in
  List.iter (fun nr -> set_rule f nr Allow) numbers;
  f

let set_flow filter fa = filter.flow <- fa

let flow filter = filter.flow

(** A copy sharing the (immutable) rule semantics, for seccomp policy
    inheritance across fork/clone.  The flow automaton is shared: the
    model never schedules children separately, and §7.1 keeps forked
    workers under the same monitor. *)
let copy filter =
  {
    rules = Bytes.copy filter.rules;
    other_rules = filter.other_rules;
    default = filter.default;
    evaluations = 0;
    flow = filter.flow;
  }
