(* The static pre-resolution ablation (BENCH_static_pre_resolution.json
   and the `static` section): full BASTION per app, trap cache on, in
   three configurations —

     off          no static results at all
     rank-only    pre-resolution on but the taint cheap path disabled
                  (plain/ctx/dead records active, rank-untainted slots
                  still pay the full binding+shadow check)
     full         everything on, untainted slots verified by the
                  single-probe cheap path

   The off-configuration numbers must be byte-identical to the
   corresponding BENCH_trap_fastpath.json records — static results only
   ever REPLACE shadow probes, they never change what a run executes.
   The on-records add the per-mechanism hit counters and the slot
   breakdown (plain / per-context / dead-site) with taint-rank counts;
   a tainted slot is never pre-resolved, which the artifact records. *)

module D = Workloads.Drivers
module P = Bastion_analysis.Preresolve
module J = Report.Json
module Run = Results.Run

type config = {
  name : string;
  pre_resolve : bool;
  run : Run.t;
  (* pre-resolved hits, per-context hits, AI tainted / untainted checks *)
  hits : (int * int * int * int) option;
}

type row = {
  app : D.app;
  resolved : int;
  breakdown : P.breakdown;
  tainted_pre_resolved : int;
  configs : config list;  (* off, rank-only, full *)
}

(* The taint veto: a slot ranked tainted must appear in no
   pre-resolution table. *)
let tainted_pre_resolved (p : Bastion.Api.protected) : int =
  Hashtbl.fold
    (fun id ranks acc ->
      acc
      + List.length
          (List.filter
             (fun ((pos, tainted) : int * bool) ->
               tainted
               && ((match Hashtbl.find_opt p.Bastion.Api.pre_resolved id with
                   | Some l -> List.mem_assoc pos l
                   | None -> false)
                  ||
                  match Hashtbl.find_opt p.Bastion.Api.pre_resolved_ctx id with
                  | Some l ->
                    List.exists
                      (fun ((q, _, _) : int * int * int64) -> q = pos)
                      l
                  | None -> false))
             ranks))
    p.Bastion.Api.slot_ranks 0

let config ~app ~baseline name ~pre_resolve (m : D.measurement) =
  {
    name;
    pre_resolve;
    run = Run.of_measurement ~baseline app m;
    hits =
      Option.map
        (fun monitor ->
          let ai_tainted, ai_untainted = Bastion.Monitor.ai_rank_stats monitor in
          ( Bastion.Monitor.pre_resolved_hits monitor,
            Bastion.Monitor.ctx_resolved_hits monitor,
            ai_tainted,
            ai_untainted ))
        m.D.m_monitor;
  }

let rows : row list Lazy.t =
  lazy
    (List.map
       (fun (app : D.app) ->
         let baseline = D.run app D.Vanilla in
         let configs =
           [
             config ~app ~baseline "off" ~pre_resolve:false
               (D.run app D.Bastion_full);
             config ~app ~baseline "rank-only" ~pre_resolve:true
               (D.run ~pre_resolve:true ~taint_cheap_path:false app D.Bastion_full);
             config ~app ~baseline "full" ~pre_resolve:true
               (D.run ~pre_resolve:true app D.Bastion_full);
           ]
         in
         let p = Workloads.Deployments.bundle (D.source app) ~fs:false ~pre_resolve:true in
         {
           app;
           resolved = P.resolved_slots p;
           breakdown = P.breakdown p;
           tainted_pre_resolved = tainted_pre_resolved p;
           configs;
         })
       (Results.apps ()))

let config_json (c : config) : J.t =
  Run.json c.run
    ~key:[ ("config", J.Str c.name); ("pre_resolve", J.Bool c.pre_resolve) ]
    ~extra:
      (match c.hits with
      | None -> []
      | Some (hits, ctx_hits, ai_tainted, ai_untainted) ->
        [
          ("pre_resolved_hits", Run.int hits);
          ("ctx_resolved_hits", Run.int ctx_hits);
          ("ai_tainted_checks", Run.int ai_tainted);
          ("ai_untainted_checks", Run.int ai_untainted);
        ])

let slots_json (r : row) : J.t =
  let b = r.breakdown in
  J.Obj
    [
      ("resolved", Run.int r.resolved);
      ("plain", Run.int b.P.bk_plain);
      ("per_context", Run.int b.P.bk_ctx);
      ("dead_site", Run.int b.P.bk_dead);
      ("ranked_tainted", Run.int b.P.bk_tainted);
      ("ranked_untainted", Run.int b.P.bk_untainted);
      ("tainted_pre_resolved", Run.int r.tainted_pre_resolved);
    ]

let document () : J.t =
  let rows = Lazy.force rows in
  J.Obj
    [
      ("schema", J.Str "bastion-bench-static/2");
      ( "note",
        J.Str
          "static pre-resolution ablation: full BASTION, trap cache on; \
           'off' has no static results (records match \
           BENCH_trap_fastpath.json), 'rank-only' adds plain/per-context/\
           dead-site pre-resolution with the taint cheap path disabled, \
           'full' also verifies rank-untainted slots through the \
           single-probe cheap path; tainted slots are never pre-resolved" );
      ( "pre_resolved_slots",
        J.Obj (List.map (fun r -> (r.app.D.app_name, slots_json r)) rows) );
      ("results", J.List (List.concat_map (fun r -> List.map config_json r.configs) rows));
    ]

(* Printed section (`bench/main.exe static`). *)
let run () =
  print_endline "Static pre-resolution (SCCP + taint ablation)";
  print_endline "---------------------------------------------";
  List.iter
    (fun r ->
      let b = r.breakdown in
      let find name = List.find (fun c -> c.name = name) r.configs in
      let off = (find "off").run.Run.cycles and full = find "full" in
      let on = full.run.Run.cycles in
      let hits, ctx_hits, _, untainted =
        Option.value full.hits ~default:(0, 0, 0, 0)
      in
      Printf.printf
        "  %-8s slots=%d (plain=%d ctx=%d dead=%d) ranks t/u=%d/%d  cycles \
         off=%d on=%d saved=%d  hits=%d ctx=%d cheap=%d\n"
        r.app.D.app_name r.resolved b.P.bk_plain b.P.bk_ctx b.P.bk_dead
        b.P.bk_tainted b.P.bk_untainted off on (off - on) hits ctx_hits untainted)
    (Lazy.force rows);
  print_newline ()
