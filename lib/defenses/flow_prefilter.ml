(* The syscall-flow pre-filter as a defense layer: the per-app
   syscall-transition digraph and origin table that the static flowgraph
   pass (lib/analysis/flowgraph.ml) extracts from the SIL model, and its
   deployment into the graph of the in-kernel automaton evaluated by
   [Kernel.Seccomp.flow_eval].

   The spec is program-level (SIL locations); deployment resolves every
   node to its concrete code address through the machine layout and
   attaches the deploy-time argument knowledge (which positions are
   pinned to a statically-known constant) supplied by the monitor's
   metadata.  Keeping the spec location-based makes it a pure function
   of the protected bundle — the same extraction replayed against the
   same program yields the same graph. *)

(** What the static value analysis knows about one argument position of
    a sensitive callsite:
    - [Fact_set vs]: the value is one of the finitely many constants in
      [vs] on every benign execution (checkable against the argument
      register at seccomp stage);
    - [Fact_free]: the value is dynamic but kernel-derived (flows from a
      syscall result through registers and locals only) — no
      register-visible check exists, and none is needed for the flow
      tier;
    - [Fact_opaque]: the value depends on memory the attacker could
      reach (a global or pointee load, an indirect-call result): only
      the full monitor's shadow check can judge it. *)
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

let stats (s : spec) =
  {
    st_nodes = List.length s.sp_nodes;
    st_edges =
      List.fold_left (fun acc n -> acc + Sil.Loc.Set.cardinal n.ns_succs) 0 s.sp_nodes;
    st_starts = Sil.Loc.Set.cardinal s.sp_starts;
    st_indirect_nodes =
      List.length (List.filter (fun n -> n.ns_sysno = None) s.sp_nodes);
  }

let pp_stats fmt (st : stats) =
  Format.fprintf fmt "%d nodes (%d indirect), %d edges, %d start states"
    st.st_nodes st.st_indirect_nodes st.st_edges st.st_starts

(** Resolve the spec against a concrete layout and deploy it as the
    in-kernel automaton's graph, which every session of the deployment
    walks with its own state.  [info ~addr ~sysno] classifies the
    AI-checked argument positions of the callsite at [addr] from the
    deployment's metadata: [`Pin c] is a compiler-pinned constant
    (checked against the register), [`Scalar] a dynamic
    register-visible value (judged by the extraction's {!arg_fact}),
    [`Pointer] a checked pointer the seccomp stage can never verify;
    [None] means the callsite carries no metadata for that syscall.  A
    node is tiered-resolvable when every AI position ends up checked or
    kernel-derived. *)
let deploy (s : spec) ~(layout : Machine.Layout.t)
    ~(info :
       addr:int64 ->
       sysno:int option ->
       (int * [ `Pin of int64 | `Scalar | `Pointer ]) list option) :
    Kernel.Seccomp.flow_graph =
  let addr_of loc = Machine.Layout.addr_of_loc layout loc in
  let node (n : node_spec) : Kernel.Seccomp.flow_node =
    let fn_rip = addr_of n.ns_loc in
    let fn_checks, fn_resolvable =
      match info ~addr:fn_rip ~sysno:n.ns_sysno with
      | None -> ([], false)
      | Some positions ->
        let resolvable = ref true in
        let checks =
          List.filter_map
            (fun (pos, cls) ->
              match cls with
              | `Pin c -> Some (pos, [ c ])
              | `Pointer ->
                resolvable := false;
                None
              | `Scalar -> (
                match List.assoc_opt pos n.ns_facts with
                | Some (Fact_set vs) -> Some (pos, vs)
                | Some Fact_free -> None
                | Some Fact_opaque | None ->
                  resolvable := false;
                  None))
            positions
        in
        (checks, !resolvable)
    in
    { fn_rip; fn_sysno = n.ns_sysno; fn_checks; fn_resolvable }
  in
  let edges (n : node_spec) =
    let src = addr_of n.ns_loc in
    List.map (fun succ -> (src, addr_of succ)) (Sil.Loc.Set.elements n.ns_succs)
  in
  Kernel.Seccomp.flow_graph ~nodes:(List.map node s.sp_nodes)
    ~edges:(List.concat_map edges s.sp_nodes)
    ~starts:(List.map addr_of (Sil.Loc.Set.elements s.sp_starts))
    ~indirect_sysnos:s.sp_indirect_sysnos
