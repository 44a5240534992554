(* Shared measurement collection: Figure 3 / Table 3 / Table 7 reuse the
   same runs, so they are collected once per bench invocation. *)

module D = Workloads.Drivers

let apps () = [ D.nginx (); D.sqlite (); D.vsftpd () ]

type app_results = {
  app : D.app;
  baseline : D.measurement;
  by_defense : (D.defense * D.measurement) list;
}

let overhead (r : app_results) (m : D.measurement) =
  D.overhead_pct ~baseline:r.baseline m ~higher_is_better:r.app.higher_is_better

let collect_app ?(defenses = List.tl D.figure3_defenses @ D.table7_defenses) (app : D.app)
    : app_results =
  let baseline = D.run app D.Vanilla in
  let by_defense = List.map (fun d -> (d, D.run app d)) defenses in
  { app; baseline; by_defense }

let main_results : app_results list Lazy.t = lazy (List.map collect_app (apps ()))

let find (r : app_results) (d : D.defense) = List.assoc d r.by_defense

let metric_of (r : app_results) (d : D.defense) = (find r d).m_metric

(* What every artifact row records about one run.  A measurement holds
   the whole machine, so the rows the artifacts and their printed
   sections share keep just these numbers. *)
module Run = struct
  module J = Report.Json

  type t = {
    app : D.app;
    defense : D.defense;
    metric : float;
    cycles : int;
    overhead_pct : float;
    traps : int;
    syscalls : int;
  }

  let of_measurement ~(baseline : D.measurement) (app : D.app) (m : D.measurement) =
    {
      app;
      defense = m.D.m_defense;
      metric = m.D.m_metric;
      cycles = m.D.m_cycles;
      overhead_pct =
        D.overhead_pct ~baseline m ~higher_is_better:app.D.higher_is_better;
      traps = m.D.m_traps;
      syscalls = m.D.m_syscalls;
    }

  let int n = J.Num (float_of_int n)

  (* A row: app and defense, the row's own [key] fields, the run's
     numbers, then the row's [extra] fields. *)
  let json ~key ~extra (r : t) : J.t =
    J.Obj
      ([ ("app", J.Str r.app.D.app_name); ("defense", J.Str (D.defense_name r.defense)) ]
      @ key
      @ [
          ("metric", J.Num r.metric);
          ("metric_name", J.Str r.app.D.metric_name);
          ("cycles", int r.cycles);
          ("overhead_pct", J.Num r.overhead_pct);
          ("traps", int r.traps);
          ("syscalls", int r.syscalls);
        ]
      @ extra)
end
