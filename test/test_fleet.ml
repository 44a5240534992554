(* Tests for the fleet telemetry plane: domain-safe metric shards and
   their merge laws (exactness, commutativity, associativity), the
   open-loop fleet engine's sharded-vs-serial equivalence, the
   saturation-knee detector, and the shape of the committed
   BENCH_fleet.json artifact. *)

module F = Workloads.Fleet
module M = Obs.Metrics
module J = Report.Json

(* --- domain-safe metric shards ---------------------------------------- *)

(* Four domains hammer their own shard registries concurrently; the
   merge at join must recover the exact serial totals — integer
   counters and histogram state make the merge exact, not approximate. *)
let test_shards_domain_stress () =
  let sh = M.Shards.create () in
  let domains = 4 and per_domain = 5_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let reg = M.Shards.my sh in
            let c = M.counter reg "stress.traps" in
            let h = M.histogram reg "stress.lat" in
            for i = 1 to per_domain do
              M.incr c;
              M.observe h ((d * per_domain) + i)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "one registry per domain" domains
    (List.length (M.Shards.registries sh));
  let merged = M.Shards.merged sh in
  let total = domains * per_domain in
  Alcotest.(check (float 1e-9)) "counter total exact" (float_of_int total)
    (List.assoc "stress.traps" (M.counter_values merged));
  let s = M.summarize (M.histogram merged "stress.lat") in
  Alcotest.(check int) "every observation merged" total s.M.s_count;
  Alcotest.(check int) "global min survives" 1 s.M.s_min;
  Alcotest.(check int) "global max survives" total s.M.s_max;
  (* Σ 1..20000 = 200_010_000: the integer sum merges exactly. *)
  Alcotest.(check (float 1e-9)) "mean exact after merge"
    (float_of_int (total * (total + 1) / 2) /. float_of_int total)
    s.M.s_mean

(* --- merge laws (qcheck) ---------------------------------------------- *)

(* A registry is modelled by the op list that built it: each op bumps
   a named counter and observes the same value into a named histogram. *)
let apply_ops reg ops =
  List.iter
    (fun (i, v) ->
      let name = Printf.sprintf "m%d" i in
      M.add (M.counter reg ("c." ^ name)) v;
      M.observe (M.histogram reg ("h." ^ name)) v)
    ops

let registry_of ops =
  let reg = M.create () in
  apply_ops reg ops;
  reg

let ops_gen =
  QCheck.(list_of_size (Gen.int_range 0 60) (pair (int_bound 3) (int_bound 100_000)))

let prop_merge_matches_serial =
  QCheck.Test.make ~count:100 ~name:"merged shards = one serial registry"
    QCheck.(triple ops_gen ops_gen ops_gen)
    (fun (a, b, c) ->
      let merged = M.merge [ registry_of a; registry_of b; registry_of c ] in
      let serial = registry_of (a @ b @ c) in
      M.equal merged serial)

let prop_merge_commutative =
  QCheck.Test.make ~count:100 ~name:"merge is commutative"
    QCheck.(pair ops_gen ops_gen)
    (fun (a, b) ->
      M.equal
        (M.merge [ registry_of a; registry_of b ])
        (M.merge [ registry_of b; registry_of a ]))

let prop_merge_associative =
  QCheck.Test.make ~count:100 ~name:"merge is associative"
    QCheck.(triple ops_gen ops_gen ops_gen)
    (fun (a, b, c) ->
      let ra () = registry_of a and rb () = registry_of b and rc () = registry_of c in
      M.equal
        (M.merge [ M.merge [ ra (); rb () ]; rc () ])
        (M.merge [ ra (); M.merge [ rb (); rc () ] ]))

let prop_merge_identity =
  QCheck.Test.make ~count:100 ~name:"empty registry is the merge identity"
    ops_gen
    (fun a ->
      let reg = registry_of a in
      M.equal reg (M.merge [ registry_of a; M.create () ])
      && M.equal reg (M.merge [ M.create (); registry_of a ]))

(* --- the open-loop fleet engine --------------------------------------- *)

(* The real sharded pool at sub- and super-saturation load: the merged
   shard registries must equal the serial reference simulation exactly
   at every rate, and the latency summaries must be internally
   consistent. *)
let test_fleet_matches_serial () =
  let arrivals = 300 in
  let t = F.build ~tracees:8 ~shards:4 in
  let cap = F.capacity t ~arrivals in
  List.iter
    (fun fraction ->
      let r = F.run_at t ~arrivals ~rate:(fraction *. cap) in
      Alcotest.(check bool)
        (Printf.sprintf "merged = serial at %.2fx capacity" fraction)
        true r.F.rr_matches_serial;
      Alcotest.(check int) "one queue item per shard" 4 r.F.rr_queue_items;
      let s = M.summarize (M.histogram r.F.rr_merged "fleet.e2e") in
      Alcotest.(check int)
        (Printf.sprintf "every arrival observed at %.2fx" fraction)
        arrivals s.M.s_count;
      Alcotest.(check bool) "p50 <= p99 <= p99.9 <= max" true
        (s.M.s_p50 <= s.M.s_p99
        && s.M.s_p99 <= s.M.s_p999
        && s.M.s_p999 <= float_of_int s.M.s_max))
    [ 0.25; 0.9; 1.2 ]

(* Queue waits must grow with offered load: the tail at 1.2x capacity
   dominates the tail at a quarter of it. *)
let test_fleet_wait_grows_with_load () =
  let arrivals = 400 in
  let t = F.build ~tracees:8 ~shards:2 in
  let cap = F.capacity t ~arrivals in
  let wait f =
    let r = F.run_at t ~arrivals ~rate:(f *. cap) in
    (M.summarize (M.histogram r.F.rr_merged "fleet.queue_wait")).M.s_p99
  in
  let light = wait 0.25 and heavy = wait 1.2 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 wait grows toward saturation (%.0f -> %.0f)" light heavy)
    true (heavy > light)

(* The phase decomposition: per-trap service = prefilter + snapshot +
   CT + CF + AI, so the merged phase histogram means must sum to the
   service mean. *)
let test_fleet_phase_decomposition () =
  let arrivals = 200 in
  let t = F.build ~tracees:6 ~shards:2 in
  let cap = F.capacity t ~arrivals in
  let r = F.run_at t ~arrivals ~rate:(0.5 *. cap) in
  let mean name = (M.summarize (M.histogram r.F.rr_merged name)).M.s_mean in
  let parts =
    List.fold_left ( +. ) 0.0
      (List.map
         (fun p -> mean (Printf.sprintf "fleet.phase.%s" p))
         [ "prefilter"; "snapshot"; "ct"; "cf"; "ai" ])
  in
  Alcotest.(check (float 1e-6)) "phase means sum to the service mean"
    (mean "fleet.service") parts

(* The per-shard time series of a small stealing fleet, pinned row for
   row: traps, busy cycles, queue-wait p50/p99/p99.9 and e2e p99 per
   shard at every 30,000-cycle boundary.  The rows come from each
   worker's own registry as it goes, so they pin the order in which a
   shard observes its traps, not only the totals. *)
let test_fleet_stats_rows_pinned () =
  let t = F.build ~tracees:6 ~shards:3 in
  let arrivals = 90 in
  let rate = 0.9 *. F.capacity t ~arrivals in
  let r =
    F.run_at ~stats_interval:30_000 ~policy:Bastion_mt.Monitor_pool.Steal t ~arrivals ~rate
  in
  Alcotest.(check bool) "merged = serial" true r.F.rr_matches_serial;
  Alcotest.(check int) "steals" 14 r.F.rr_steals;
  let expected =
    [
      (30_000, 0, [ 6.; 32022.; 3071.5; 6978.; 6978.; 12310. ]);
      (30_000, 1, [ 6.; 22374.; 0.; 695.; 695.; 5244. ]);
      (30_000, 2, [ 7.; 18596.; 0.; 0.; 0.; 2979. ]);
      (60_000, 0, [ 12.; 64251.; 8191.; 17740.; 17740.; 23309. ]);
      (60_000, 1, [ 12.; 44167.; 0.; 695.; 695.; 5244. ]);
      (60_000, 2, [ 12.; 31950.; 0.; 0.; 0.; 2979. ]);
      (90_000, 0, [ 17.; 90686.; 14335.25; 27783.; 27783.; 33064. ]);
      (90_000, 1, [ 18.; 68806.; 0.; 695.; 695.; 5244. ]);
      (90_000, 2, [ 18.; 48285.; 0.; 0.; 0.; 2979. ]);
      (120_000, 0, [ 23.; 122528.; 19660.6; 36839.; 36839.; 42160. ]);
      (120_000, 1, [ 24.; 90581.; 0.; 695.; 695.; 5244. ]);
      (120_000, 2, [ 23.; 61629.; 0.; 0.; 0.; 2979. ]);
      (150_000, 0, [ 29.; 154334.; 24575.5; 47456.; 47456.; 52737. ]);
      (180_000, 0, [ 34.; 180752.; 27852.1; 55685.; 55685.; 60959. ]);
    ]
  in
  let fields =
    [ "traps"; "busy_cycles"; "queue_wait_p50"; "queue_wait_p99"; "queue_wait_p999"; "e2e_p99" ]
  in
  let render (at, shard, vs) =
    Printf.sprintf "t=%d shard=%d %s" at shard
      (String.concat " " (List.map2 (Printf.sprintf "%s=%.17g") fields vs))
  in
  Alcotest.(check (list string)) "rows" (List.map render expected)
    (List.map
       (fun (row : Obs.Timeseries.row) ->
         render
           ( row.Obs.Timeseries.r_t,
             row.Obs.Timeseries.r_shard,
             List.map (fun f -> List.assoc f row.Obs.Timeseries.r_fields) fields ))
       r.F.rr_stats)

(* Regression: a shard no arrival reaches still samples a row at every
   boundary, all zeros, but must not register instruments the serial
   reference never creates — that made every sampled point of a fleet
   with an idle shard read as diverged. *)
let test_fleet_idle_shard_stats () =
  let t = F.build ~tracees:1 ~shards:2 in
  let arrivals = 50 in
  let cap = F.capacity t ~arrivals in
  List.iter
    (fun policy ->
      List.iter
        (fun fraction ->
          let r =
            F.run_at ~stats_interval:20_000 ~policy t ~arrivals ~rate:(fraction *. cap)
          in
          let what =
            Printf.sprintf "%s at %.2fx" (Bastion_mt.Monitor_pool.policy_name policy) fraction
          in
          Alcotest.(check bool) (what ^ ": merged = serial") true r.F.rr_matches_serial;
          Alcotest.(check int) (what ^ ": one queue item per shard") 2 r.F.rr_queue_items;
          Alcotest.(check bool) (what ^ ": no shard1 instruments") false
            (List.mem_assoc "fleet.shard1.traps" (M.counter_values r.F.rr_merged));
          let idle =
            List.filter (fun (row : Obs.Timeseries.row) -> row.r_shard = 1) r.F.rr_stats
          in
          Alcotest.(check int) (what ^ ": the idle shard samples every boundary")
            (r.F.rr_horizon / 20_000) (List.length idle);
          List.iter
            (fun (row : Obs.Timeseries.row) ->
              List.iter
                (fun (field, v) ->
                  Alcotest.(check (float 0.))
                    (Printf.sprintf "%s: shard1 %s at %d" what field row.r_t)
                    0. v)
                row.r_fields)
            idle)
        [ 0.2; 1.15 ])
    Bastion_mt.Monitor_pool.all_policies

(* --- the knee detector ------------------------------------------------ *)

let knee = Alcotest.(option (pair int string))

let test_detect_knee () =
  (* Utilisation crossing 1.0 wins at the first saturated point. *)
  Alcotest.check knee "util knee"
    (Some (2, "bottleneck shard utilisation reached 1.0"))
    (F.detect_knee [ (0.2, 0.0, 100.0); (0.6, 50.0, 100.0); (1.05, 400.0, 100.0) ]);
  (* Tail blow-up before the analytic limit: baseline p99 10 is floored
     at the 100-cycle mean service, so the limit is 800. *)
  Alcotest.check knee "tail knee"
    (Some (2, "p99 queue wait exceeded 8x the lightest-load baseline"))
    (F.detect_knee [ (0.2, 10.0, 100.0); (0.5, 20.0, 100.0); (0.9, 5000.0, 100.0) ]);
  (* The service floor: a 700-cycle wait under an 800-cycle limit is
     bursting, not saturation, even though the baseline p99 was 0. *)
  Alcotest.check knee "no knee under the service floor" None
    (F.detect_knee [ (0.2, 0.0, 100.0); (0.5, 300.0, 100.0); (0.9, 700.0, 100.0) ]);
  Alcotest.check knee "empty sweep" None (F.detect_knee [])

(* --- the committed artifact ------------------------------------------- *)

let test_bench_fleet_artifact () =
  Testlib.Artifacts.(holds (fleet (committed fleet_file)))

(* A small two-policy ablation end to end: shared capacity yardstick,
   per-arm knees, serial equivalence everywhere, and the JSON document
   round-trips with the v2 schema. *)
let test_fleet_ablation_small () =
  let a = F.ablation ~tracees:8 ~shards:4 ~arrivals:200 ~points:3 () in
  Alcotest.(check int) "two arms" 2 (List.length a.F.ab_sweeps);
  List.iter
    (fun (s : F.sweep) ->
      Alcotest.(check (float 1e-9)) "shared capacity" a.F.ab_capacity
        s.F.sw_capacity;
      List.iter
        (fun (p : F.point) ->
          Alcotest.(check bool) "matches serial" true
            p.F.pt_result.F.rr_matches_serial)
        s.F.sw_points)
    a.F.ab_sweeps;
  match J.member "schema" (F.ablation_json a) with
  | Some (J.Str "bastion-fleet/2") -> ()
  | _ -> Alcotest.fail "ablation_json must carry the v2 schema"

let suites =
  [
    ( "fleet-shards",
      [
        Alcotest.test_case "4-domain stress merges exactly" `Quick
          test_shards_domain_stress;
        QCheck_alcotest.to_alcotest prop_merge_matches_serial;
        QCheck_alcotest.to_alcotest prop_merge_commutative;
        QCheck_alcotest.to_alcotest prop_merge_associative;
        QCheck_alcotest.to_alcotest prop_merge_identity;
      ] );
    ( "fleet-engine",
      [
        Alcotest.test_case "sharded run matches serial reference" `Quick
          test_fleet_matches_serial;
        Alcotest.test_case "queue wait grows with offered load" `Quick
          test_fleet_wait_grows_with_load;
        Alcotest.test_case "phase means sum to service mean" `Quick
          test_fleet_phase_decomposition;
        Alcotest.test_case "stats rows of a stealing fleet, pinned" `Quick
          test_fleet_stats_rows_pinned;
        Alcotest.test_case "knee detector" `Quick test_detect_knee;
        Alcotest.test_case "an idle shard's rows match the serial reference" `Quick
          test_fleet_idle_shard_stats;
      ] );
    ( "fleet-artifact",
      [
        Alcotest.test_case "BENCH_fleet.json shape" `Quick
          test_bench_fleet_artifact;
        Alcotest.test_case "small two-policy ablation" `Quick
          test_fleet_ablation_small;
      ] );
  ]
