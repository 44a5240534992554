(* The tiered trap-resolution pre-filter: the seccomp-stage flow
   automaton engine, the static extraction invariants, and the
   equivalence properties the tier split must preserve — tiered and
   full monitors produce fingerprint-identical verdicts, the tier
   totals account for every trap, and the Table 6 matrix is identical
   behind the pre-filter. *)

module S = Kernel.Seccomp
module Drivers = Workloads.Drivers
module Runner = Attacks.Runner

(* --- the automaton engine --------------------------------------------- *)

let mk_node ?(checks = []) ?(resolvable = true) ~rip ~sysno () : S.flow_node =
  {
    S.fn_rip = rip;
    fn_sysno = sysno;
    fn_checks = checks;
    fn_resolvable = resolvable;
    fn_succs = Hashtbl.create 4;
  }

(* A: start, unconstrained.  B: follows A, arg0 must be 1 or 2.
   C: follows B, unresolvable (a checked pointer).  D: follows C,
   indirect callsite (any indirectly-callable number, here 59). *)
let mk_automaton mode =
  let fa = S.flow_create ~mode in
  S.flow_add_node fa (mk_node ~rip:0x100L ~sysno:(Some 9) ());
  S.flow_add_node fa
    (mk_node ~rip:0x200L ~sysno:(Some 10) ~checks:[ (0, [ 1L; 2L ]) ] ());
  S.flow_add_node fa (mk_node ~rip:0x300L ~sysno:(Some 11) ~resolvable:false ());
  S.flow_add_node fa (mk_node ~rip:0x400L ~sysno:None ());
  S.flow_add_start fa 0x100L;
  S.flow_add_edge fa ~src:0x100L ~dst:0x200L;
  S.flow_add_edge fa ~src:0x200L ~dst:0x300L;
  S.flow_add_edge fa ~src:0x300L ~dst:0x400L;
  S.flow_add_indirect_sysno fa 59;
  fa

let decision =
  Alcotest.testable
    (fun fmt d ->
      Format.pp_print_string fmt
        (match d with
        | S.Flow_resolve -> "resolve"
        | S.Flow_fallthrough -> "fallthrough"
        | S.Flow_kill -> "kill"))
    ( = )

let test_engine_basics () =
  let fa = mk_automaton S.Flow_tiered in
  Alcotest.(check int) "node count" 4 (S.flow_node_count fa);
  Alcotest.(check int) "edge count" 3 (S.flow_edge_count fa);
  (* Start node resolves; its successor with an in-set argument too. *)
  Alcotest.check decision "start resolves" S.Flow_resolve
    (S.flow_eval fa ~sysno:9 ~rip:0x100L ~args:[||]);
  Alcotest.check decision "edge + in-set arg resolves" S.Flow_resolve
    (S.flow_eval fa ~sysno:10 ~rip:0x200L ~args:[| 2L |]);
  (* Unresolvable node: edge is fine but tiered mode must hand the
     trap to the full monitor. *)
  Alcotest.check decision "unresolvable node falls through" S.Flow_fallthrough
    (S.flow_eval fa ~sysno:11 ~rip:0x300L ~args:[||]);
  (* The monitor allowed it: resync, then the indirect node takes any
     indirectly-callable number. *)
  S.flow_note_allowed fa ~rip:0x300L;
  Alcotest.check decision "indirect node takes 59" S.Flow_resolve
    (S.flow_eval fa ~sysno:59 ~rip:0x400L ~args:[||]);
  Alcotest.check decision "indirect node rejects other numbers"
    S.Flow_fallthrough
    (S.flow_eval fa ~sysno:10 ~rip:0x400L ~args:[||]);
  let resolved, fallthroughs, kills = S.flow_stats fa in
  Alcotest.(check (triple int int int))
    "stats account for every step" (3, 2, 0)
    (resolved, fallthroughs, kills)

let test_engine_misses () =
  (* Tiered: every miss is a fallthrough, never a verdict. *)
  let fa = mk_automaton S.Flow_tiered in
  Alcotest.check decision "non-start first trap" S.Flow_fallthrough
    (S.flow_eval fa ~sysno:10 ~rip:0x200L ~args:[| 1L |]);
  Alcotest.check decision "unknown rip" S.Flow_fallthrough
    (S.flow_eval fa ~sysno:9 ~rip:0x999L ~args:[||]);
  ignore (S.flow_eval fa ~sysno:9 ~rip:0x100L ~args:[||]);
  Alcotest.check decision "wrong sysno at a known node" S.Flow_fallthrough
    (S.flow_eval fa ~sysno:11 ~rip:0x200L ~args:[| 1L |]);
  Alcotest.check decision "out-of-set argument" S.Flow_fallthrough
    (S.flow_eval fa ~sysno:10 ~rip:0x200L ~args:[| 3L |]);
  Alcotest.check decision "non-edge transition" S.Flow_fallthrough
    (S.flow_eval fa ~sysno:11 ~rip:0x300L ~args:[||]);
  (* Standalone: the same misses kill. *)
  let fa = mk_automaton S.Flow_standalone in
  Alcotest.check decision "standalone non-start kills" S.Flow_kill
    (S.flow_eval fa ~sysno:10 ~rip:0x200L ~args:[| 1L |]);
  ignore (S.flow_eval fa ~sysno:9 ~rip:0x100L ~args:[||]);
  Alcotest.check decision "standalone out-of-set kills" S.Flow_kill
    (S.flow_eval fa ~sysno:10 ~rip:0x200L ~args:[| 3L |]);
  (* Standalone has no fall-through tier, so [fn_resolvable] does not
     apply: edge-consistent calls at an unresolvable node are allowed
     (the checks are all the defense there is). *)
  ignore (S.flow_eval fa ~sysno:10 ~rip:0x200L ~args:[| 1L |]);
  Alcotest.check decision "standalone resolves an unresolvable node"
    S.Flow_resolve
    (S.flow_eval fa ~sysno:11 ~rip:0x300L ~args:[||])

let test_engine_resync () =
  let fa = mk_automaton S.Flow_tiered in
  ignore (S.flow_eval fa ~sysno:9 ~rip:0x100L ~args:[||]);
  (* A fallthrough does not advance the state: B is still the expected
     successor of A afterwards. *)
  Alcotest.check decision "miss leaves the state" S.Flow_fallthrough
    (S.flow_eval fa ~sysno:9 ~rip:0x999L ~args:[||]);
  Alcotest.check decision "state survived the miss" S.Flow_resolve
    (S.flow_eval fa ~sysno:10 ~rip:0x200L ~args:[| 1L |]);
  (* An allowed trap at an unknown callsite desynchronises: any node
     may resolve next (over-approximation, never a false kill). *)
  S.flow_note_allowed fa ~rip:0x999L;
  Alcotest.check decision "desync accepts any node" S.Flow_resolve
    (S.flow_eval fa ~sysno:9 ~rip:0x100L ~args:[||])

(* --- static extraction ------------------------------------------------- *)

let apps () =
  [ Drivers.nginx (); Drivers.sqlite (); Drivers.vsftpd () ]

(* Every spec must be a well-formed digraph: non-empty, starts and
   successors are nodes, and every node is reachable from the start
   set (the invariant the dead-flow-node lint enforces). *)
let test_extraction_invariants () =
  List.iter
    (fun (app : Drivers.app) ->
      List.iter
        (fun fs ->
          let name = Printf.sprintf "%s fs:%b" app.Drivers.app_name fs in
          let spec = Drivers.flow_spec_of app ~fs in
          let nodes =
            List.fold_left
              (fun acc (n : Defenses.Flow_prefilter.node_spec) ->
                Sil.Loc.Set.add n.ns_loc acc)
              Sil.Loc.Set.empty spec.sp_nodes
          in
          Alcotest.(check bool) (name ^ ": has nodes") true (spec.sp_nodes <> []);
          Alcotest.(check bool)
            (name ^ ": has starts") false
            (Sil.Loc.Set.is_empty spec.sp_starts);
          Alcotest.(check bool)
            (name ^ ": starts are nodes") true
            (Sil.Loc.Set.subset spec.sp_starts nodes);
          List.iter
            (fun (n : Defenses.Flow_prefilter.node_spec) ->
              Alcotest.(check bool)
                (name ^ ": successors are nodes") true
                (Sil.Loc.Set.subset n.ns_succs nodes))
            spec.sp_nodes;
          (* Reachability from the start set covers every node. *)
          let reached = ref Sil.Loc.Set.empty in
          let rec visit loc =
            if not (Sil.Loc.Set.mem loc !reached) then begin
              reached := Sil.Loc.Set.add loc !reached;
              match
                List.find_opt
                  (fun (n : Defenses.Flow_prefilter.node_spec) ->
                    Sil.Loc.compare n.ns_loc loc = 0)
                  spec.sp_nodes
              with
              | Some n -> Sil.Loc.Set.iter visit n.ns_succs
              | None -> ()
            end
          in
          Sil.Loc.Set.iter visit spec.sp_starts;
          Alcotest.(check int)
            (name ^ ": all nodes reachable from starts")
            (List.length spec.sp_nodes)
            (Sil.Loc.Set.cardinal !reached);
          let st = Defenses.Flow_prefilter.stats spec in
          Alcotest.(check int)
            (name ^ ": stats node count") (List.length spec.sp_nodes)
            st.st_nodes)
        [ false; true ])
    (apps ())

(* --- tier equivalence -------------------------------------------------- *)

let small_app name =
  Result.get_ok (Bastion_replay.Engine.app_of ~name ~scale:"small")

let app_names = [| "nginx"; "sqlite"; "vsftpd" |]

let monitored_defenses =
  [|
    Drivers.Bastion_ct; Drivers.Bastion_ct_cf; Drivers.Bastion_full;
    Drivers.Bastion_fs Bastion.Monitor.Fs_full;
  |]

let fingerprint (m : Drivers.measurement) =
  match m.Drivers.m_monitor with
  | Some mon -> Bastion.Monitor.fingerprint mon
  | None -> "-"

(* Deploying the pre-filter must never change what the monitor judges
   — only where each trap is resolved.  For any workload, monitored
   defense and knob setting: the metadata fingerprint is identical,
   the run executes the same syscalls, the tiered tier totals account
   for exactly the baseline trap stream (resolved + fallthroughs, with
   the monitor seeing only the fallthroughs), and no benign trap is
   ever killed in either mode. *)
let prop_benign_tier_equivalence =
  QCheck.Test.make ~count:10 ~name:"tiered split accounts for every benign trap"
    QCheck.(pair (pair (int_range 0 2) (int_range 0 3)) (pair bool bool))
    (fun ((ai, di), (trap_cache, pre_resolve)) ->
      let app = small_app app_names.(ai) in
      let defense = monitored_defenses.(di) in
      let base = Drivers.run ~trap_cache ~pre_resolve app defense in
      let tiered =
        Drivers.run ~trap_cache ~pre_resolve ~prefilter:S.Flow_tiered app defense
      in
      let alone =
        Drivers.run ~trap_cache ~pre_resolve ~prefilter:S.Flow_standalone app
          defense
      in
      let stats m =
        match m.Drivers.m_monitor with
        | Some mon -> (
          match Bastion.Monitor.prefilter mon with
          | Some _ -> Bastion.Monitor.prefilter_stats mon
          | None -> (-1, -1, -1))
        | None -> (-1, -1, -1)
      in
      let t_res, t_ft, t_kill = stats tiered in
      let s_res, s_ft, s_kill = stats alone in
      String.equal (fingerprint base) (fingerprint tiered)
      && String.equal (fingerprint base) (fingerprint alone)
      && base.Drivers.m_syscalls = tiered.Drivers.m_syscalls
      && base.Drivers.m_syscalls = alone.Drivers.m_syscalls
      && t_res + t_ft = base.Drivers.m_traps
      && tiered.Drivers.m_traps = t_ft
      && t_kill = 0
      (* Standalone resolves the whole benign stream: the extraction
         over-approximates, so no benign trap is ever killed. *)
      && s_res = base.Drivers.m_traps
      && s_ft = 0 && s_kill = 0
      && alone.Drivers.m_traps = 0)

(* The Table 6 matrix is tier-invariant: the full monitor behind the
   tiered pre-filter blocks exactly what it blocks alone, under any
   knob setting, and a tiered deployment never lets a catalog attack
   through uncaught. *)
let prop_attack_tier_equivalence =
  QCheck.Test.make ~count:6 ~name:"tiered Table 6 verdicts match the full monitor"
    QCheck.(pair (int_range 0 (List.length Attacks.Catalog.all - 1)) (pair bool bool))
    (fun (i, (trap_cache, pre_resolve)) ->
      let attack = List.nth Attacks.Catalog.all i in
      let r = Runner.evaluate ~trap_cache ~pre_resolve attack in
      Runner.matches_expectation r
      && Runner.blocked r.r_full = Runner.blocked r.r_tiered
      && (not (Runner.blocked r.r_full))
         || Runner.catching_tier r <> Runner.Tier_uncaught)

let suites =
  [
    ( "prefilter",
      [
        Alcotest.test_case "automaton engine: edges, checks, tiers" `Quick
          test_engine_basics;
        Alcotest.test_case "automaton engine: miss semantics per mode" `Quick
          test_engine_misses;
        Alcotest.test_case "automaton engine: desync and resync" `Quick
          test_engine_resync;
        Alcotest.test_case "extraction yields a connected digraph" `Quick
          test_extraction_invariants;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_benign_tier_equivalence; prop_attack_tier_equivalence ] );
  ]
