(* The tiered trap-resolution ablation (BENCH_prefilter.json and the
   `prefilter` section): full BASTION per app with the syscall-flow
   pre-filter off, standalone (the SFIP baseline: the automaton is the
   only defense) and tiered (automaton in front of the unchanged full
   monitor).  The off-configuration numbers must be byte-identical to
   the trap-cache-on records of BENCH_trap_fastpath.json — the
   pre-filter is deployed strictly on top.  The headline is the tiered
   row: the majority of traps resolve at seccomp cost, with a strict
   total-cycle win over the trap-cache fast path alone.  The attack
   section records which tier of the tiered deployment catches each
   catalog attack. *)

module D = Workloads.Drivers
module J = Report.Json
module Run = Results.Run

type automaton = {
  resolved : int;
  fallthroughs : int;
  kills : int;
  nodes : int;
  edges : int;
}

type row = {
  run : Run.t;
  mode : Kernel.Seccomp.flow_mode option;  (* None: pre-filter off *)
  automaton : automaton option;
}

let mode_name = function
  | None -> "off"
  | Some m -> Kernel.Seccomp.flow_mode_name m

let row ~app ~baseline mode (m : D.measurement) =
  let automaton =
    match (mode, m.D.m_monitor) with
    | None, _ | _, None -> None
    | Some _, Some monitor ->
      Option.map
        (fun (fa : Kernel.Seccomp.flow_automaton) ->
          let resolved, fallthroughs, kills = Bastion.Monitor.prefilter_stats monitor in
          {
            resolved;
            fallthroughs;
            kills;
            nodes = Kernel.Seccomp.flow_node_count fa.fa_graph;
            edges = Kernel.Seccomp.flow_edge_count fa.fa_graph;
          })
        (Bastion.Monitor.prefilter monitor)
  in
  { run = Run.of_measurement ~baseline app m; mode; automaton }

type app_rows = { off : row; standalone : row; tiered : row }

let rows : app_rows list Lazy.t =
  lazy
    (List.map
       (fun (app : D.app) ->
         let baseline = D.run app D.Vanilla in
         let run mode = row ~app ~baseline mode (D.run ?prefilter:mode app D.Bastion_full) in
         let off = run None in
         let standalone = run (Some Kernel.Seccomp.Flow_standalone) in
         let tiered = run (Some Kernel.Seccomp.Flow_tiered) in
         { off; standalone; tiered })
       (Results.apps ()))

let row_json (r : row) : J.t =
  Run.json r.run
    ~key:[ ("prefilter", J.Str (mode_name r.mode)) ]
    ~extra:
      (match r.automaton with
      | None -> []
      | Some a ->
        let eligible = a.resolved + a.fallthroughs in
        [
          ("prefilter_resolved", Run.int a.resolved);
          ("prefilter_fallthroughs", Run.int a.fallthroughs);
          ("prefilter_kills", Run.int a.kills);
          ( "prefilter_resolved_pct",
            J.Num
              (if eligible = 0 then 0.
               else 100. *. float_of_int a.resolved /. float_of_int eligible) );
          ("automaton_nodes", Run.int a.nodes);
          ("automaton_edges", Run.int a.edges);
        ])

let attack_tiers () =
  let rows = Attacks.Runner.evaluate_all () in
  let count tier =
    Run.int (List.length (List.filter (fun r -> Attacks.Runner.catching_tier r = tier) rows))
  in
  let per_attack =
    List.map
      (fun (r : Attacks.Runner.row) ->
        ( r.r_attack.Attacks.Attack.a_id,
          J.Str (Attacks.Runner.tier_name (Attacks.Runner.catching_tier r)) ))
      rows
  in
  J.Obj
    [
      ("prefilter", count Attacks.Runner.Tier_prefilter);
      ("full", count Attacks.Runner.Tier_full);
      ("uncaught", count Attacks.Runner.Tier_uncaught);
      ("per_attack", J.Obj per_attack);
    ]

let document () : J.t =
  let rows = Lazy.force rows in
  J.Obj
    [
      ("schema", J.Str "bastion-bench-prefilter/1");
      ( "note",
        J.Str
          "tiered trap-resolution ablation: full BASTION, trap cache on; \
           prefilter deploys the seccomp-stage syscall-flow automaton \
           standalone (SFIP baseline) or tiered in front of the unchanged \
           monitor (the off-records match the trap_cache:true records of \
           BENCH_trap_fastpath.json)" );
      ( "results",
        J.List
          (List.concat_map
             (fun a -> List.map row_json [ a.off; a.standalone; a.tiered ])
             rows) );
      ("attack_tiers", attack_tiers ());
    ]

(* Printed section (`bench/main.exe prefilter`). *)
let run () =
  print_endline "Tiered trap resolution (syscall-flow pre-filter ablation)";
  print_endline "---------------------------------------------------------";
  List.iter
    (fun { off; standalone; tiered } ->
      let resolved, fallthroughs =
        match tiered.automaton with
        | Some a -> (a.resolved, a.fallthroughs)
        | None -> (0, 0)
      in
      Printf.printf
        "  %-8s full=%d cycles  tiered=%d (resolved %d/%d traps at seccomp \
         cost, saved %d)  prefilter-only=%d\n"
        off.run.Run.app.D.app_name off.run.Run.cycles tiered.run.Run.cycles
        resolved (resolved + fallthroughs)
        (off.run.Run.cycles - tiered.run.Run.cycles)
        standalone.run.Run.cycles)
    (Lazy.force rows);
  print_newline ()
