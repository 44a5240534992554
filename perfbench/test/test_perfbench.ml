(* Tests of the benchmark's own code: its statistics, its span
   recorder, seed determinism, and a smoke run of every workload. *)

open Perfbench
module Fleet = Workloads.Fleet

let close_to ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b)

let check_float msg expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g = %g" msg expected actual) true
    (close_to expected actual)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let test_percentile_refuses_thin_tails () =
  let xs n = Array.init n Fun.id in
  Alcotest.(check bool) "p99 of 999" true (Stats.percentile (xs 999) 0.99 = None);
  Alcotest.(check bool) "p99 of 1000" true (Stats.percentile (xs 1000) 0.99 <> None);
  Alcotest.(check bool) "p90 of 99" true (Stats.percentile (xs 99) 0.9 = None);
  Alcotest.(check bool) "p90 of 100" true (Stats.percentile (xs 100) 0.9 <> None);
  check_float "p50 of 0..100" 50.0 (Option.get (Stats.percentile (xs 101) 0.5))

(* The fleet's own per-trap accounting, fed with known service times:
   the exact percentiles of the raw end-to-end samples must agree with
   the registry's summary to within its power-of-two bucket. *)
let test_percentile_agrees_with_metrics () =
  let st = Random.State.make [| 42 |] in
  let prof name =
    (name, Array.init 300 (fun _ -> Fleet_eval.profile ~prefilter:12 (500 + Random.State.int st 20_000)))
  in
  let fleet = Fleet_eval.make ~seed:3 [ prof "a"; prof "b"; prof "c" ] in
  let arrivals = 5_000 in
  let sched = Fleet.schedule fleet ~arrivals in
  let policy = Bastion_mt.Monitor_pool.Steal in
  let spacing =
    Workloads.Drivers_config.cycles_per_second /. (0.9 *. Fleet.capacity fleet ~arrivals)
  in
  let _, dests = Fleet.plan_schedule ~policy fleet sched ~spacing in
  let reg = Obs.Metrics.create () in
  let clocks = Array.make Fleet_eval.shards 0 in
  let e2e =
    Array.mapi
      (fun i (tracee, tp) ->
        let shard = dests.(i) and at = Fleet.arrival_time ~spacing i in
        let finish = Fleet.observe_trap reg ~shard ~tracee ~at ~clock:clocks.(shard) tp in
        clocks.(shard) <- finish;
        finish - at)
      sched
  in
  Alcotest.(check bool) "same registry as the serial reference" true
    (Obs.Metrics.equal reg (Fleet.simulate_serial ~policy fleet sched ~spacing));
  let s = Obs.Metrics.summarize (Obs.Metrics.histogram reg "fleet.e2e") in
  List.iter
    (fun (p, est) ->
      let exact = Option.get (Stats.percentile e2e p) in
      Alcotest.(check bool)
        (Printf.sprintf "p%g: exact %g vs histogram %g" (100. *. p) exact est)
        true
        (Float.abs (Float.log2 exact -. Float.log2 est) <= 1.0))
    [ (0.5, s.s_p50); (0.9, s.s_p90); (0.99, s.s_p99) ]

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartile_spread () =
  let q xs = Array.to_list (Stats.quartiles xs) in
  List.iter2 (check_float "quartile") [ 2.75; 5.5; 8.25 ]
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  List.iter2 (check_float "quartile") [ 1.0; 2.0; 3.0 ] (q [ 3.0; 1.0; 2.0 ]);
  List.iter2 (check_float "quartile") [ 0.395; 0.41; 0.535 ] (q [ 0.41; 0.39; 0.62; 0.40; 0.45 ]);
  check_float "spread of 1..10" 1.0
    (Stats.quartile_spread (List.init 10 (fun i -> float_of_int (i + 1))));
  check_float "spread of a constant" 0.0 (Stats.quartile_spread [ 4.0; 4.0; 4.0 ])

(* Two kinds of chunk: each runs at its median rescaled rate, and the
   phase's rate weighs them by their ops. *)
let test_rates () =
  let r = Stats.Rates.create () in
  let add kind ops scaled_secs = Stats.Rates.add r ~kind ~ops ~secs:1.0 ~scaled_secs in
  add "a" 100 1.0;
  add "a" 100 2.0;
  add "a" 100 1.25;
  add "b" 10 1.0;
  (* a: 300 ops at its median 80/s = 3.75 s; b: 10 ops at 10/s = 1 s. *)
  check_float "rate" (310.0 /. 4.75) (Stats.Rates.rate r);
  Alcotest.(check int) "ops" 310 r.ops;
  check_float "host seconds, not rescaled" 4.0 r.secs

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_self_time () =
  let t = ref 0 in
  let sp = Spans.create ~now:(fun () -> !t) ~cap:3 () in
  let at n = t := n in
  Spans.enter sp "a";
  at 10;
  Spans.enter sp "b";
  at 15;
  Spans.leave sp;
  at 20;
  Spans.enter sp "c";
  at 27;
  Spans.enter sp "b";
  at 29;
  Spans.leave sp;
  at 30;
  Spans.leave sp;
  at 40;
  Spans.leave sp;
  (* a lasts 40 and its children b and c cover 5 + 10; c lasts 10 and
     its child b covers 2. *)
  check_float "a self" 25e-9 (Spans.self_s sp "a");
  check_float "b self" 7e-9 (Spans.self_s sp "b");
  check_float "c self" 8e-9 (Spans.self_s sp "c");
  check_float "a total" 40e-9 (Spans.total_s sp "a");
  Alcotest.(check int) "b count" 2 (Spans.count sp "b");
  Alcotest.(check int) "kept up to the cap" 3 (List.length (Spans.spans sp));
  Alcotest.(check int) "dropped past the cap" 1 sp.dropped;
  let full = Spans.create ~now:(fun () -> !t) () in
  at 0;
  Spans.with_span full "x" (fun () ->
      at 3;
      Spans.with_span full "y" (fun () -> at 7);
      at 9);
  let by_name =
    List.map
      (fun (id, self) -> ((List.find (fun s -> s.Spans.id = id) (Spans.spans full)).name, self))
      (Spans.self_times (Spans.spans full))
  in
  Alcotest.(check (list (pair string int))) "self times from the list" [ ("y", 4); ("x", 5) ]
    by_name

(* ------------------------------------------------------------------ *)
(* Seeds                                                               *)

let test_seed_draws () =
  Alcotest.(check bool) "seed 0 is the defaults" true
    (Params.draws ~seed:0 ~n:2 = [ Params.defaults; Params.defaults ]);
  Alcotest.(check bool) "same seed, same draws" true
    (Params.draws ~seed:7 ~n:3 = Params.draws ~seed:7 ~n:3);
  Alcotest.(check bool) "another seed moves them" true
    (Params.draws ~seed:7 ~n:1 <> Params.draws ~seed:8 ~n:1);
  Alcotest.(check bool) "fleet shape, seed 0 = Fleet.build's" true
    (Params.fleet_shape ~seed:0 ~tracees:8 ~profile_len:(fun _ -> 100)
    = Array.init 8 (fun k -> (Fleet.weight_of k, k * 13 mod 100)))

let modelled out =
  List.filter_map
    (fun (x : Out.metric) ->
      if x.clock = Out.Host then None
      else Option.map (fun v -> x.name ^ "=" ^ Out.number v) (Out.get out x.name))
    (Out.end_to_end @ Out.per_layer)

let smoke ~workload ~seed ~traced =
  let out = Out.create () in
  ignore (Bench.measure out ~workload ~seed ~seconds:0.0 ~traced ~smoke:true);
  out

let test_seed_repeats () =
  let a = modelled (smoke ~workload:"fleet" ~seed:5 ~traced:false) in
  let b = modelled (smoke ~workload:"fleet" ~seed:5 ~traced:false) in
  Alcotest.(check (list string)) "byte-identical modelled output" a b;
  Alcotest.(check bool) "non-empty" true (List.length a > 5)

(* ------------------------------------------------------------------ *)
(* The catalogue                                                       *)

(* BENCHMARK.json lists exactly the metrics a run prints, in order,
   with the same units; its workloads are the ones a run accepts. *)
let test_catalogue () =
  let module J = Report.Json in
  let b = J.of_file "../../BENCHMARK.json" in
  let names key field =
    List.map
      (fun m -> Option.get (J.to_str (Option.get (J.member field m))))
      (Option.get (J.to_list (Option.get (J.member key b))))
  in
  let ours cat f = List.map f cat in
  Alcotest.(check (list string)) "workloads" Bench.workloads (names "workloads" "name");
  List.iter
    (fun (key, cat) ->
      Alcotest.(check (list string)) (key ^ " names")
        (ours cat (fun (x : Out.metric) -> x.name)) (names key "name");
      Alcotest.(check (list string)) (key ^ " units")
        (ours cat (fun (x : Out.metric) -> x.unit_)) (names key "unit"))
    [ ("end_to_end", Out.end_to_end); ("per_layer", Out.per_layer) ]

(* ------------------------------------------------------------------ *)
(* Smoke                                                               *)

let test_smoke workload () =
  let out = smoke ~workload ~seed:1 ~traced:true in
  Alcotest.(check (list string)) "no failed op" [] out.failures;
  Alcotest.(check bool) "ops attempted" true (out.attempted > 0);
  Alcotest.(check (option (float 0.0))) "ledger balanced" (Some 0.0)
    (match Out.get out "ledger.mismatches" with None -> Some 0.0 | v -> v);
  Alcotest.(check bool) "traced run measured" true (Out.get out "trace.overhead_frac" <> None);
  Alcotest.(check bool) "every fleet metric" true
    (List.for_all
       (fun n -> Out.get out n <> None)
       [ "fleet.e2e_p99_cycles.load50"; "fleet.e2e_p99_cycles.load90";
         "fleet.sustained_traps_per_s" ]);
  ignore (Out.result_json out ~traced:true)

let () =
  Audit_wl.golden_dir := "../../test/golden";
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile refuses thin tails" `Quick
            test_percentile_refuses_thin_tails;
          Alcotest.test_case "percentile agrees with Obs.Metrics" `Quick
            test_percentile_agrees_with_metrics;
          Alcotest.test_case "quartile spread" `Quick test_quartile_spread;
          Alcotest.test_case "chunk rates" `Quick test_rates;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_span_self_time ]);
      ( "seeds",
        [
          Alcotest.test_case "parameter draws" `Quick test_seed_draws;
          Alcotest.test_case "modelled output repeats" `Quick test_seed_repeats;
        ] );
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json" `Quick test_catalogue ]);
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case w `Quick (test_smoke w))
          Bench.workloads );
    ]
