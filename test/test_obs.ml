(* Tests for the flight recorder (lib/obs): the ring buffer, the
   metrics registry and its percentile maths, the monitor's stats
   accessors, the non-finite JSON fix, and the end-to-end acceptance
   runs — Chrome-trace structure, registry-vs-legacy agreement, and
   recorder-on/off invariance of cycles and the Table 6 matrix. *)

module D = Workloads.Drivers
module J = Report.Json

(* --- ring buffer ------------------------------------------------------ *)

let test_ring_bounds () =
  let r = Obs.Ring.create 4 in
  Alcotest.(check int) "capacity" 4 (Obs.Ring.capacity r);
  Alcotest.(check (list int)) "empty" [] (Obs.Ring.to_list r);
  for i = 0 to 9 do
    Obs.Ring.push r i
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Ring.length r);
  Alcotest.(check int) "pushes counted" 10 (Obs.Ring.pushed r);
  Alcotest.(check int) "overwrites counted" 6 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 6; 7; 8; 9 ]
    (Obs.Ring.to_list r);
  let seen = ref [] in
  Obs.Ring.iter r (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "iter order matches to_list" [ 6; 7; 8; 9 ]
    (List.rev !seen);
  Obs.Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Obs.Ring.length r);
  Obs.Ring.push r 42;
  Alcotest.(check (list int)) "usable after clear" [ 42 ] (Obs.Ring.to_list r);
  Alcotest.(check bool) "zero capacity rejected" true
    (match Obs.Ring.create 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- metrics registry ------------------------------------------------- *)

let test_counters_and_probes () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "a.count" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Metrics.value c);
  (* find-or-create: the same name is the same counter *)
  Obs.Metrics.incr (Obs.Metrics.counter reg "a.count");
  Alcotest.(check int) "same name, same counter" 43 (Obs.Metrics.value c);
  let ext = ref 7.0 in
  Obs.Metrics.register_probe reg "b.external" (fun () -> !ext);
  let assoc name = List.assoc name (Obs.Metrics.counter_values reg) in
  Alcotest.(check (float 1e-9)) "probe sampled" 7.0 (assoc "b.external");
  ext := 9.5;
  Alcotest.(check (float 1e-9)) "probe re-sampled at read time" 9.5
    (assoc "b.external");
  let names = List.map fst (Obs.Metrics.counter_values reg) in
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names

let test_histogram_basics () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "lat" in
  for v = 1 to 100 do
    Obs.Metrics.observe h v
  done;
  let s = Obs.Metrics.summarize h in
  Alcotest.(check int) "count" 100 s.Obs.Metrics.s_count;
  Alcotest.(check int) "min" 1 s.Obs.Metrics.s_min;
  Alcotest.(check int) "max" 100 s.Obs.Metrics.s_max;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.Obs.Metrics.s_mean;
  Alcotest.(check bool) "p50 <= p90" true (s.Obs.Metrics.s_p50 <= s.Obs.Metrics.s_p90);
  Alcotest.(check bool) "p90 <= p99" true (s.Obs.Metrics.s_p90 <= s.Obs.Metrics.s_p99);
  Alcotest.(check bool) "negatives clamp to 0" true
    (let h' = Obs.Metrics.histogram reg "neg" in
     Obs.Metrics.observe h' (-5);
     Obs.Metrics.histogram_min h' = 0)

(* qcheck: for any observation set, the percentile summary is monotone
   (p50 <= p90 <= p99) and bounded by the observed min/max, and the
   percentile function itself is monotone in p. *)
let prop_percentiles_monotone_bounded =
  QCheck.Test.make ~count:300
    ~name:"histogram percentiles monotone and bounded by min/max"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 200) (int_bound 1_000_000))
        (pair (int_bound 100) (int_bound 100)))
    (fun (values, (a, b)) ->
      let reg = Obs.Metrics.create () in
      let h = Obs.Metrics.histogram reg "h" in
      List.iter (Obs.Metrics.observe h) values;
      let s = Obs.Metrics.summarize h in
      let fmin = float_of_int s.Obs.Metrics.s_min
      and fmax = float_of_int s.Obs.Metrics.s_max in
      let lo = float_of_int (min a b) /. 100.0
      and hi = float_of_int (max a b) /. 100.0 in
      fmin <= s.Obs.Metrics.s_p50
      && s.Obs.Metrics.s_p50 <= s.Obs.Metrics.s_p90
      && s.Obs.Metrics.s_p90 <= s.Obs.Metrics.s_p99
      && s.Obs.Metrics.s_p99 <= fmax
      && Obs.Metrics.percentile h lo <= Obs.Metrics.percentile h hi)

(* p99.9 with a heavy tail: 990 fast traps, 9 in the ~1000-cycle
   bucket, one 10^6 outlier.  Rank 0.999 lands among the 1000s, so
   sub-bucket interpolation must report a value inside that bucket —
   not clamp flat to the outlier max the way a bucket-ceiling estimate
   would. *)
let test_p999_heavy_tail () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "tail" in
  for _ = 1 to 990 do
    Obs.Metrics.observe h 8
  done;
  for _ = 1 to 9 do
    Obs.Metrics.observe h 1000
  done;
  Obs.Metrics.observe h 1_000_000;
  let s = Obs.Metrics.summarize h in
  Alcotest.(check int) "count" 1000 s.Obs.Metrics.s_count;
  Alcotest.(check bool) "p99 in the fast bucket" true (s.Obs.Metrics.s_p99 <= 15.0);
  Alcotest.(check bool) "p999 above p99" true
    (s.Obs.Metrics.s_p999 > s.Obs.Metrics.s_p99);
  Alcotest.(check bool) "p999 inside the 1000s bucket" true
    (s.Obs.Metrics.s_p999 >= 512.0 && s.Obs.Metrics.s_p999 <= 1023.0);
  Alcotest.(check bool) "p999 is not the outlier max" true
    (s.Obs.Metrics.s_p999 < float_of_int s.Obs.Metrics.s_max)

(* --- shard/tracee lanes on events ------------------------------------- *)

let test_event_lane_roundtrip () =
  let r = Obs.Recorder.create ~tracing:true () in
  let _ =
    D.run ~recorder:r (D.nginx ~params:Workloads.Nginx_model.small ()) D.Bastion_full
  in
  match Obs.Recorder.trap_events r with
  | [] -> Alcotest.fail "no trap events recorded"
  | ev :: _ -> (
    (* Solo runs keep lane 0/0, and zero lanes are not emitted: the
       audit-log byte format predating lanes is preserved. *)
    Alcotest.(check int) "solo shard lane" 0 ev.Obs.Event.ev_shard;
    Alcotest.(check int) "solo tracee lane" 0 ev.Obs.Event.ev_tracee;
    Alcotest.(check bool) "zero lanes stay off the wire" true
      (J.member "shard" (Obs.Event.to_json ev) = None
      && J.member "tracee" (Obs.Event.to_json ev) = None);
    (match Obs.Event.of_json (Obs.Event.to_json ev) with
    | Error e -> Alcotest.fail e
    | Ok ev' ->
      Alcotest.(check int) "lane-less record parses as lane 0" 0
        ev'.Obs.Event.ev_shard);
    let tagged = { ev with Obs.Event.ev_shard = 3; ev_tracee = 17 } in
    let json = Obs.Event.to_json tagged in
    Alcotest.(check bool) "nonzero lanes emitted" true
      (J.member "shard" json <> None && J.member "tracee" json <> None);
    match Obs.Event.of_json json with
    | Error e -> Alcotest.fail e
    | Ok ev' ->
      Alcotest.(check int) "shard survives the round trip" 3
        ev'.Obs.Event.ev_shard;
      Alcotest.(check int) "tracee survives the round trip" 17
        ev'.Obs.Event.ev_tracee)

(* --- time-series emitter ---------------------------------------------- *)

let test_timeseries_of_events () =
  let r = Obs.Recorder.create ~tracing:true () in
  let _ =
    D.run ~recorder:r (D.sqlite ~params:Workloads.Sqlite_model.small ()) D.Bastion_full
  in
  let events = Obs.Recorder.trap_events r in
  Alcotest.(check bool) "workload recorded traps" true (events <> []);
  let rows = Obs.Timeseries.of_events ~interval:50_000 events in
  let traps =
    List.fold_left
      (fun acc row ->
        acc + int_of_float (List.assoc "traps" row.Obs.Timeseries.r_fields))
      0 rows
  in
  Alcotest.(check int) "every trap lands in exactly one window"
    (List.length events) traps;
  let ts = List.map (fun row -> row.Obs.Timeseries.r_t) rows in
  Alcotest.(check bool) "rows in time order" true (List.sort compare ts = ts);
  let path = Filename.temp_file "bastion_stats" ".jsonl" in
  Obs.Timeseries.write_jsonl rows path;
  (match Obs.Timeseries.read path with
  | Error e -> Alcotest.fail e
  | Ok (_header, rows') ->
    Alcotest.(check int) "JSONL round-trips every row" (List.length rows)
      (List.length rows'));
  Sys.remove path

(* --- monitor stats accessors ------------------------------------------ *)

let test_monitor_cache_and_depth_stats () =
  let session = Test_fastpath.run_chain ~trap_cache:true 8 30 in
  let m = session.Bastion.Api.monitor in
  let hits, misses, rate = Bastion.Monitor.cache_stats m in
  Alcotest.(check bool) "repeated traps hit" true (hits > 0);
  Alcotest.(check int) "every trap probes the cache" m.Bastion.Monitor.traps_checked
    (hits + misses);
  Alcotest.(check (float 1e-9)) "rate = hits / probes"
    (float_of_int hits /. float_of_int (hits + misses))
    rate;
  (match Bastion.Monitor.depth_stats m with
  | None -> Alcotest.fail "depth_stats None after verified traps"
  | Some (dmin, dmean, dmax) ->
    Alcotest.(check bool) "1 <= min" true (dmin >= 1);
    Alcotest.(check bool) "min <= mean <= max" true
      (float_of_int dmin <= dmean && dmean <= float_of_int dmax);
    Alcotest.(check bool) "deep chain walked" true (dmax >= 8));
  (* Cache off: the accessors stay well-defined. *)
  let off = Test_fastpath.run_chain ~trap_cache:false 8 30 in
  let h0, m0, r0 = Bastion.Monitor.cache_stats off.Bastion.Api.monitor in
  Alcotest.(check int) "no hits with cache off" 0 h0;
  Alcotest.(check int) "no misses with cache off" 0 m0;
  Alcotest.(check (float 1e-9)) "rate 0 before any probe" 0.0 r0

let test_depth_stats_empty () =
  let protected_prog = Bastion.Api.protect (Test_fastpath.chain_program 3 1) in
  let session = Bastion.Api.launch protected_prog () in
  Alcotest.(check bool) "no traps yet: depth_stats None" true
    (Bastion.Monitor.depth_stats session.Bastion.Api.monitor = None)

(* --- non-finite JSON numbers (regression) ----------------------------- *)

let test_json_nonfinite_emits_null () =
  Alcotest.(check string) "nan emits null" "null\n" (J.to_string (J.Num Float.nan));
  Alcotest.(check string) "inf emits null" "null"
    (J.to_compact_string (J.Num Float.infinity));
  Alcotest.(check string) "-inf emits null" "null"
    (J.to_compact_string (J.Num Float.neg_infinity));
  (* The emitted document must stay parseable. *)
  let doc = J.Obj [ ("bad", J.Num (0.0 /. 0.0)); ("good", J.Num 1.5) ] in
  let back = J.of_string (J.to_string doc) in
  Alcotest.(check bool) "nan round-trips as null" true
    (J.member "bad" back = Some J.Null);
  Alcotest.(check bool) "finite neighbour preserved" true
    (J.member "good" back = Some (J.Num 1.5))

let test_json_compact_single_line () =
  let doc =
    J.Obj
      [
        ("s", J.Str "line\nbreak");
        ("l", J.List [ J.Num 1.0; J.Bool false; J.Null ]);
        ("o", J.Obj [ ("k", J.Num 2.5) ]);
      ]
  in
  let s = J.to_compact_string doc in
  Alcotest.(check bool) "single line" true (not (String.contains s '\n'));
  Alcotest.check
    (Alcotest.testable (Fmt.of_to_string J.to_string) ( = ))
    "compact round-trips" doc (J.of_string s)

(* --- control characters in strings (regression) ------------------------ *)

let test_json_control_char_roundtrip () =
  (* Every control character must survive emit -> parse, in both the
     pretty and the compact emitter. *)
  let all_controls = String.init 0x20 Char.chr in
  let doc = J.Obj [ ("s", J.Str all_controls) ] in
  let check_emitter name emit =
    match J.member "s" (J.of_string (emit doc)) with
    | Some (J.Str back) ->
      Alcotest.(check string) (name ^ ": all 32 control chars round-trip")
        all_controls back
    | _ -> Alcotest.fail (name ^ ": string member lost")
  in
  check_emitter "pretty" J.to_string;
  check_emitter "compact" J.to_compact_string;
  (* The short escapes emit as themselves, not as \u forms. *)
  let s = J.to_compact_string (J.Str "\b\012\n\r\t") in
  Alcotest.(check string) "short escapes preferred" {|"\b\f\n\r\t"|} s;
  (* Foreign documents may use \b and \f; both parse. *)
  Alcotest.(check bool) "parses \\b and \\f" true
    (J.of_string {|"a\bz\fq"|} = J.Str "a\bz\012q");
  (* A malformed \u escape is a parse error, not a crash; so is a
     number outside JSON's grammar, and one too large for a float, which
     is reported where it starts. *)
  List.iter
    (fun text ->
      match J.of_string text with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s accepted" text)
    [ {|"\uZZZZ"|}; {|"\u0_41"|}; "+1"; ".5"; "1."; "01"; "-"; "1e"; "1e400" ];
  match J.of_string "[1, -1e400]" with
  | exception J.Parse_error msg ->
    Alcotest.(check bool) "overflow reported at its offset" true
      (String.ends_with ~suffix:"at offset 4" msg)
  | _ -> Alcotest.fail "overflowing number accepted"

(* --- recorder arming and the disabled path ---------------------------- *)

let test_recorder_unarmed_counts_only () =
  let r = Obs.Recorder.create () in
  Alcotest.(check bool) "off by default" false (Obs.Recorder.armed r);
  Obs.Recorder.count_trap r ~denied:false;
  Obs.Recorder.count_trap r ~denied:false;
  Obs.Recorder.count_trap r ~denied:true;
  let assoc name =
    List.assoc name (Obs.Metrics.counter_values (Obs.Recorder.metrics r))
  in
  Alcotest.(check (float 1e-9)) "traps counted" 3.0 (assoc "obs.traps");
  Alcotest.(check (float 1e-9)) "allowed counted" 2.0 (assoc "obs.allowed");
  Alcotest.(check (float 1e-9)) "denied counted" 1.0 (assoc "obs.denied");
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Recorder.items r));
  Obs.Recorder.set_on_event r (Some (fun _ -> ()));
  Alcotest.(check bool) "callback arms" true (Obs.Recorder.armed r);
  Obs.Recorder.set_on_event r None;
  Alcotest.(check bool) "disarmed again" false (Obs.Recorder.armed r);
  Alcotest.(check bool) "tracing arms" true
    (Obs.Recorder.armed (Obs.Recorder.create ~tracing:true ()));
  Alcotest.(check bool) "metrics arm" true
    (Obs.Recorder.armed (Obs.Recorder.create ~metrics:true ()))

(* --- JSONL audit sink ------------------------------------------------- *)

let test_jsonl_lines_parse () =
  let recorder = Obs.Recorder.create ~tracing:true () in
  let protected_prog = Bastion.Api.protect (Test_fastpath.chain_program 4 10) in
  let session = Bastion.Api.launch ~recorder protected_prog () in
  (match Machine.run session.Bastion.Api.machine with
  | Machine.Exited _ -> ()
  | Machine.Faulted f -> Alcotest.fail (Machine.fault_to_string f));
  let items = Obs.Recorder.items recorder in
  Alcotest.(check bool) "recorded something" true (items <> []);
  let path = Filename.temp_file "bastion_obs" ".jsonl" in
  Obs.Recorder.write_jsonl recorder path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "one line per item" (List.length items) (List.length !lines);
  List.iter
    (fun line ->
      match J.of_string line with
      | J.Obj fields -> Alcotest.(check bool) "kind field" true (List.mem_assoc "kind" fields)
      | _ -> Alcotest.fail "JSONL line is not an object"
      | exception J.Parse_error e -> Alcotest.fail ("unparseable JSONL line: " ^ e))
    !lines

(* --- denied traps carry the failing phase ----------------------------- *)

let test_denied_trap_records_failed_span () =
  (* Find any catalog attack whose full-BASTION denial comes from a
     monitor trap (as opposed to a seccomp KILL, which never traps). *)
  let denied_event =
    List.find_map
      (fun (a : Attacks.Attack.t) ->
        let r = Obs.Recorder.create ~tracing:true () in
        match Attacks.Runner.run ~recorder:r a Attacks.Runner.Full_bastion with
        | Attacks.Runner.Blocked _ -> (
          match List.filter Obs.Event.denied (Obs.Recorder.trap_events r) with
          | [] -> None
          | evs -> Some (List.nth evs (List.length evs - 1)))
        | _ -> None)
      Attacks.Catalog.all
  in
  match denied_event with
  | None -> Alcotest.fail "no attack produced a denied trap event"
  | Some ev ->
    (match ev.Obs.Event.ev_verdict with
    | Obs.Event.Denied { d_context; _ } ->
      Alcotest.(check bool) "denial names its context" true (d_context <> "")
    | Obs.Event.Allowed -> Alcotest.fail "denied event carries Allowed verdict");
    Alcotest.(check bool) "a phase span failed" true
      (List.exists
         (fun (sp : Obs.Event.span) -> sp.Obs.Event.sp_outcome = Obs.Event.Failed)
         ev.Obs.Event.ev_spans)

(* --- acceptance: the Chrome trace of a real workload ------------------ *)

let float_arg key e =
  match Option.bind (J.member "args" e) (J.member key) with
  | Some (J.Num f) -> Some f
  | _ -> None

let test_chrome_trace_acceptance () =
  let recorder = Obs.Recorder.create ~tracing:true ~metrics:true () in
  let m = D.run ~recorder (D.nginx ()) D.Bastion_full in
  let path = Filename.temp_file "bastion_nginx" ".trace.json" in
  Obs.Chrome.write recorder path;
  let doc = J.of_file path in
  Sys.remove path;
  (match J.member "schema" doc with
  | Some (J.Str s) -> Alcotest.(check string) "schema" Obs.Chrome.schema s
  | _ -> Alcotest.fail "missing schema");
  let events =
    match Option.bind (J.member "traceEvents" doc) J.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "missing traceEvents"
  in
  (* B/E events balance like a stack: depth never negative, ends at 0. *)
  let final_depth =
    List.fold_left
      (fun depth e ->
        match J.member "ph" e with
        | Some (J.Str "B") -> depth + 1
        | Some (J.Str "E") ->
          Alcotest.(check bool) "E never precedes its B" true (depth > 0);
          depth - 1
        | _ -> depth)
      0 events
  in
  Alcotest.(check int) "B/E balanced" 0 final_depth;
  (* Every trap has all three phase spans nested under it. *)
  let trap_begins =
    List.filter
      (fun e ->
        J.member "cat" e = Some (J.Str "trap") && J.member "ph" e = Some (J.Str "B"))
      events
  in
  Alcotest.(check int) "one trap span per monitor trap" m.D.m_traps
    (List.length trap_begins);
  let phases_of_seq = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      if J.member "cat" e = Some (J.Str "phase") && J.member "ph" e = Some (J.Str "B")
      then
        match (float_arg "trap_seq" e, J.member "name" e) with
        | Some seq, Some (J.Str name) ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt phases_of_seq seq)
          in
          Hashtbl.replace phases_of_seq seq (name :: prev)
        | _ -> Alcotest.fail "phase span without trap_seq/name")
    events;
  List.iter
    (fun e ->
      match float_arg "seq" e with
      | None -> Alcotest.fail "trap span without seq"
      | Some seq ->
        let phases =
          List.sort compare (Option.value ~default:[] (Hashtbl.find_opt phases_of_seq seq))
        in
        Alcotest.(check (list string))
          (Printf.sprintf "trap %g has CT/CF/AI spans" seq)
          [ "AI"; "CF"; "CT" ] phases)
    trap_begins;
  (* The embedded registry snapshot equals the legacy accessors. *)
  let counters =
    match Option.bind (J.member "metrics" doc) (J.member "counters") with
    | Some (J.Obj fields) -> fields
    | _ -> Alcotest.fail "missing metrics.counters"
  in
  let counter name =
    match List.assoc_opt name counters with
    | Some (J.Num f) -> f
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  let tracer = m.D.m_process.Kernel.Process.tracer in
  Alcotest.(check (float 1e-9)) "ptrace.calls_made matches legacy"
    (float_of_int tracer.Kernel.Ptrace.calls_made)
    (counter "ptrace.calls_made");
  Alcotest.(check (float 1e-9)) "ptrace.words_read matches legacy"
    (float_of_int tracer.Kernel.Ptrace.words_read)
    (counter "ptrace.words_read");
  let monitor =
    match m.D.m_monitor with Some mo -> mo | None -> Alcotest.fail "no monitor"
  in
  let hits, misses, _ = Bastion.Monitor.cache_stats monitor in
  Alcotest.(check (float 1e-9)) "cache.hits matches cache_stats"
    (float_of_int hits) (counter "cache.hits");
  Alcotest.(check (float 1e-9)) "cache.misses matches cache_stats"
    (float_of_int misses) (counter "cache.misses");
  let mean_lookup, _, inserts =
    Bastion.Runtime.shadow_probe_stats monitor.Bastion.Monitor.runtime
  in
  Alcotest.(check (float 1e-9)) "shadow.inserts matches shadow_probe_stats"
    (float_of_int inserts) (counter "shadow.inserts");
  Alcotest.(check (float 1e-9)) "shadow.mean_probe_length matches" mean_lookup
    (counter "shadow.mean_probe_length");
  Alcotest.(check (float 1e-9)) "monitor.traps_checked matches measurement"
    (float_of_int m.D.m_traps)
    (counter "monitor.traps_checked");
  (* And the trace-summary reader agrees with the run. *)
  let s = Obs.Chrome.summarize doc in
  Alcotest.(check int) "summary trap count" m.D.m_traps s.Obs.Chrome.sum_traps;
  Alcotest.(check int) "summary denials" 0 s.Obs.Chrome.sum_denied;
  Alcotest.(check bool) "summary renders" true
    (String.length (Obs.Chrome.render_summary s) > 0)

(* --- invariance: observation never changes the run -------------------- *)

let test_recorder_cycle_invariance () =
  let app = D.nginx () in
  let plain = D.run app D.Bastion_full in
  let armed = Obs.Recorder.create ~tracing:true ~metrics:true () in
  let traced = D.run ~recorder:armed app D.Bastion_full in
  let unarmed = D.run ~recorder:(Obs.Recorder.create ()) app D.Bastion_full in
  List.iter
    (fun (label, (m : D.measurement)) ->
      Alcotest.(check int) (label ^ ": same cycles") plain.D.m_cycles m.D.m_cycles;
      Alcotest.(check int) (label ^ ": same traps") plain.D.m_traps m.D.m_traps;
      Alcotest.(check int) (label ^ ": same syscalls") plain.D.m_syscalls
        m.D.m_syscalls;
      Alcotest.(check (float 1e-9)) (label ^ ": same metric") plain.D.m_metric
        m.D.m_metric)
    [ ("tracing+metrics", traced); ("unarmed", unarmed) ]

let test_table6_invariant_under_recorder () =
  let plain = Test_fastpath.render_rows (Attacks.Runner.evaluate_all ()) in
  let recorder = Obs.Recorder.create ~tracing:true ~metrics:true () in
  let traced =
    Test_fastpath.render_rows (Attacks.Runner.evaluate_all ~recorder ())
  in
  Alcotest.(check string) "attack matrix byte-identical recorder on/off" plain traced

let suites =
  [
    ( "obs-ring",
      [ Alcotest.test_case "bounded ring semantics" `Quick test_ring_bounds ] );
    ( "obs-metrics",
      [
        Alcotest.test_case "counters and probes" `Quick test_counters_and_probes;
        Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
        Alcotest.test_case "p99.9 interpolates inside the tail bucket" `Quick
          test_p999_heavy_tail;
        Alcotest.test_case "event lanes round-trip, zero lanes sparse" `Slow
          test_event_lane_roundtrip;
        Alcotest.test_case "time-series emitter buckets the trap stream" `Slow
          test_timeseries_of_events;
        QCheck_alcotest.to_alcotest prop_percentiles_monotone_bounded;
      ] );
    ( "obs-monitor-stats",
      [
        Alcotest.test_case "cache_stats and depth_stats" `Quick
          test_monitor_cache_and_depth_stats;
        Alcotest.test_case "depth_stats empty before traps" `Quick
          test_depth_stats_empty;
      ] );
    ( "obs-json",
      [
        Alcotest.test_case "non-finite numbers emit null" `Quick
          test_json_nonfinite_emits_null;
        Alcotest.test_case "compact emitter round-trips" `Quick
          test_json_compact_single_line;
        Alcotest.test_case "control characters round-trip" `Quick
          test_json_control_char_roundtrip;
      ] );
    ( "obs-recorder",
      [
        Alcotest.test_case "unarmed recorder only counts" `Quick
          test_recorder_unarmed_counts_only;
        Alcotest.test_case "JSONL audit lines parse" `Quick test_jsonl_lines_parse;
        Alcotest.test_case "denied trap records failed span" `Slow
          test_denied_trap_records_failed_span;
      ] );
    ( "obs-acceptance",
      [
        Alcotest.test_case "nginx Chrome trace validates" `Slow
          test_chrome_trace_acceptance;
        Alcotest.test_case "cycles invariant under recorder" `Slow
          test_recorder_cycle_invariance;
        Alcotest.test_case "Table 6 invariant under recorder" `Slow
          test_table6_invariant_under_recorder;
      ] );
  ]
