(* Trace-driven replay: the golden-trace corpus, record→replay
   equivalence properties, reader fuzzing, and divergence detection on
   tampered traces. *)

module Trace = Bastion_replay.Trace
module Engine = Bastion_replay.Engine
module Drivers = Workloads.Drivers

let read_whole path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_temp_trace f =
  let path = Filename.temp_file "bastion-replay" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* --- golden corpus ---------------------------------------------------- *)

let golden_files =
  [
    "golden/nginx-benign.jsonl"; "golden/sqlite-benign.jsonl";
    "golden/vsftpd-benign.jsonl"; "golden/nginx-attack.jsonl";
    "golden/sqlite-attack.jsonl"; "golden/vsftpd-attack.jsonl";
  ]

(* Every checked-in golden trace must replay strictly with zero
   divergences: identical verdicts, identical per-trap and total cycle
   attribution.  This is the offline re-verification gate CI runs. *)
let test_golden_corpus () =
  List.iter
    (fun file ->
      let tr = Trace.read_file file in
      Alcotest.(check int)
        (file ^ " trap records match header") tr.t_header.h_traps
        (List.length tr.t_events);
      let r = Engine.replay ~strict:true tr in
      List.iter
        (fun (d : Engine.divergence) ->
          Printf.printf "%s:%d: %s: recorded %s, replayed %s\n" file d.dv_line
            d.dv_field d.dv_recorded d.dv_replayed)
        r.rp_divergences;
      Alcotest.(check bool) (file ^ " replays without divergence") true (Engine.ok r);
      Alcotest.(check int)
        (file ^ " replays every trap") r.rp_traps_recorded r.rp_traps_replayed;
      Alcotest.(check int)
        (file ^ " cycle total matches header") tr.t_header.h_cycles
        r.rp_cycles_replayed)
    golden_files

(* --- record→replay equivalence --------------------------------------- *)

let apps = [| "nginx"; "sqlite"; "vsftpd" |]

let replay_defenses =
  [|
    Drivers.Bastion_ct; Drivers.Bastion_ct_cf; Drivers.Bastion_full;
    Drivers.Bastion_fs Bastion.Monitor.Fs_full;
  |]

(* For any workload/defense/cache/pre-resolve/prefilter/shard
   configuration, recording a run and replaying the trace yields
   identical verdicts, trap counts and monitored cycle totals —
   strictly, down to per-phase spans and ptrace traffic.  A tiered
   trace holds only the traps that fell through the seccomp-stage
   automaton; replay redeploys the recorded mode so the same subset
   reaches the monitor.  Recording is serial; when the drawn
   configuration is sharded, the sharded per-tracee run must itself
   match the replayed trace (sharding never moves a verdict or a
   cycle, so one serial trace vouches for every shard count). *)
let prefilter_modes =
  [| None; Some Kernel.Seccomp.Flow_tiered; Some Kernel.Seccomp.Flow_standalone |]

let prop_record_replay_equivalence =
  QCheck.Test.make ~count:10 ~name:"record then replay is divergence-free"
    QCheck.(
      pair
        (pair (int_range 0 2) (int_range 0 3))
        (pair (pair bool bool) (pair (int_range 1 3) (int_range 0 2))))
    (fun ((ai, di), ((trap_cache, pre_resolve), (shards, pfi))) ->
      with_temp_trace (fun path ->
          let app = apps.(ai) and defense = replay_defenses.(di) in
          let prefilter = prefilter_modes.(pfi) in
          let m =
            Engine.record_run ~trap_cache ~pre_resolve ?prefilter ~app
              ~scale:"small" ~defense ~path ()
          in
          let tr = Trace.read_file path in
          let r = Engine.replay ~strict:true tr in
          let sharded_matches =
            shards = 1
            ||
            let a = Result.get_ok (Engine.app_of ~name:app ~scale:"small") in
            let mm =
              Drivers.run_multi ~trap_cache ~pre_resolve ?prefilter ~shards
                ~tracees:shards a defense
            in
            Array.for_all
              (fun (t : Drivers.measurement) ->
                t.m_cycles = tr.t_header.h_cycles
                && t.m_traps = m.Drivers.m_traps)
              mm.mm_tracees
          in
          Engine.ok r
          && r.rp_traps_replayed = r.rp_traps_recorded
          && r.rp_traps_recorded = tr.t_header.h_traps
          && r.rp_cycles_replayed = tr.t_header.h_cycles
          && tr.t_header.h_cycles = m.Drivers.m_cycles
          && sharded_matches))

let test_record_replay_attack () =
  with_temp_trace (fun path ->
      let outcome =
        Engine.record_attack ~attack_id:"rop-exec-daemon"
          ~config:Attacks.Runner.Full_bastion ~path ()
      in
      (match outcome with
      | Attacks.Runner.Blocked _ -> ()
      | o ->
        Alcotest.failf "rop-exec-daemon under full should be blocked, got %s"
          (Attacks.Runner.outcome_name o));
      let r = Engine.replay ~strict:true (Trace.read_file path) in
      Alcotest.(check bool) "attack trace replays clean" true (Engine.ok r))

(* A configuration without a monitor records zero traps and a "-"
   fingerprint, and still round-trips. *)
let test_record_replay_vanilla () =
  with_temp_trace (fun path ->
      ignore
        (Engine.record_run ~app:"nginx" ~scale:"small" ~defense:Drivers.Vanilla
           ~path ());
      let tr = Trace.read_file path in
      Alcotest.(check int) "no traps recorded" 0 tr.t_header.h_traps;
      Alcotest.(check string) "no fingerprint" "-" tr.t_header.h_fingerprint;
      let r = Engine.replay ~strict:true tr in
      Alcotest.(check bool) "vanilla trace replays clean" true (Engine.ok r))

(* --- reader hard gate -------------------------------------------------- *)

let check_malformed name text =
  match Trace.read_string text with
  | _ -> Alcotest.failf "%s: reader accepted a malformed trace" name
  | exception Trace.Malformed { line; msg; _ } ->
    Alcotest.(check bool)
      (name ^ " reports a positive line number") true (line >= 1);
    Alcotest.(check bool) (name ^ " has a message") true (String.length msg > 0)

let small_trace () = read_whole "golden/vsftpd-attack.jsonl"

let test_reader_rejections () =
  let text = small_trace () in
  let lines = String.split_on_char '\n' (String.trim text) in
  check_malformed "empty trace" "";
  check_malformed "non-JSON header" "hello world\n";
  check_malformed "wrong format name"
    "{\"format\":\"chrome-trace\",\"version\":1}\n";
  check_malformed "unknown version"
    "{\"format\":\"bastion-trace\",\"version\":99}\n";
  check_malformed "outdated version (v1 lacks the prefilter knob)"
    "{\"format\":\"bastion-trace\",\"version\":1,\"kind\":\"fuzz\"}\n";
  check_malformed "unknown kind"
    "{\"format\":\"bastion-trace\",\"version\":2,\"kind\":\"fuzz\"}\n";
  check_malformed "unknown prefilter mode"
    "{\"format\":\"bastion-trace\",\"version\":2,\"kind\":\"run\",\
     \"app\":\"nginx\",\"defense\":\"full\",\"scale\":\"small\",\
     \"trap_cache\":true,\"pre_resolve\":false,\"prefilter\":\"sideways\",\
     \"fingerprint\":\"-\",\"traps\":0,\"cycles\":0}\n";
  (* Drop the last line: the header's trap count no longer matches. *)
  check_malformed "truncated stream"
    (String.concat "\n" (List.filteri (fun i _ -> i < List.length lines - 1) lines));
  (* Cut the file mid-record: unterminated JSON on the final line. *)
  check_malformed "cut mid-record" (String.sub text 0 (String.length text - 30));
  (* Duplicate the final trap record: seq contiguity breaks. *)
  check_malformed "duplicated line"
    (String.concat "\n" (lines @ [ List.nth lines (List.length lines - 1) ]));
  (* Swap the first two trap records (instants may sit between them;
     only trap lines carry the seq chain). *)
  let is_trap l = Astring.String.is_infix ~affix:"\"seq\":" l in
  let trap_idx =
    List.filteri (fun i _ -> is_trap (List.nth lines i))
      (List.mapi (fun i _ -> i) lines)
  in
  (match trap_idx with
  | i :: j :: _ ->
    let swapped =
      List.mapi
        (fun k l ->
          if k = i then List.nth lines j
          else if k = j then List.nth lines i
          else l)
        lines
    in
    check_malformed "reordered lines" (String.concat "\n" swapped)
  | _ -> Alcotest.fail "trace has fewer than two trap records");
  (* Trailing garbage after a well-formed record. *)
  check_malformed "trailing garbage"
    (String.concat "\n" (List.mapi (fun i l -> if i = 1 then l ^ " }" else l) lines));
  (* A malformed \u escape inside a record string. *)
  check_malformed "bad unicode escape"
    (String.concat "\n"
       (List.mapi
          (fun i l ->
            if i = 1 then
              Str.global_replace (Str.regexp_string "\"kind\"") "\"ki\\u00Gd\"" l
            else l)
          lines));
  check_malformed "blank interior line"
    (String.concat "\n" (List.mapi (fun i l -> if i = 1 then "" else l) lines))

(* Single-bit flips anywhere in the file must produce either a clean
   parse or a positioned [Malformed] — never any other exception. *)
let prop_bitflip_total =
  let text = lazy (small_trace ()) in
  QCheck.Test.make ~count:300 ~name:"reader is total under single-bit flips"
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 7))
    (fun (pos, bit) ->
      let text = Lazy.force text in
      let pos = pos mod String.length text in
      let b = Bytes.of_string text in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      match Trace.read_string (Bytes.to_string b) with
      | _ -> true
      | exception Trace.Malformed { line; _ } -> line >= 1
      | exception _ -> false)

(* --- divergence detection on tampered traces -------------------------- *)

let replace_once ~sub ~by text =
  match Str.bounded_split_delim (Str.regexp_string sub) text 2 with
  | [ pre; post ] -> pre ^ by ^ post
  | _ -> Alcotest.failf "substring %S not found in trace" sub

(* Corrupt one recorded verdict: replay must flag exactly that record,
   by line number, with a verdict divergence — and since the replay
   follows the recorded (corrupted) deny, the run dies early, which
   surfaces as further run-level divergences.  Exit is non-zero either
   way. *)
let test_corrupted_verdict () =
  let text = read_whole "golden/nginx-benign.jsonl" in
  let tampered =
    replace_once ~sub:"\"verdict\":\"allowed\""
      ~by:"\"verdict\":\"denied\",\"context\":\"CT\",\"detail\":\"tampered\"" text
  in
  (* The corrupted record's 1-based line number. *)
  let corrupt_line =
    let lines = String.split_on_char '\n' tampered in
    1 + Option.get (List.find_index (fun l ->
        Astring.String.is_infix ~affix:"tampered" l) lines)
  in
  let tr = Trace.read_string ~file:"tampered.jsonl" tampered in
  let r = Engine.replay ~strict:true tr in
  Alcotest.(check bool) "tampered trace diverges" false (Engine.ok r);
  match r.rp_divergences with
  | first :: _ ->
    Alcotest.(check string) "field is the verdict" "verdict" first.dv_field;
    Alcotest.(check int) "line points at the corrupted record" corrupt_line
      first.dv_line;
    Alcotest.(check bool) "recorded side shows the tampered deny" true
      (Astring.String.is_infix ~affix:"tampered" first.dv_recorded)
  | [] -> Alcotest.fail "no divergences reported"

(* Tampering with the header fingerprint must refuse judgement: the
   hard gate is a run-level condition with its own report field, never
   a synthetic divergence row (which used to leak dv_line=1/dv_seq=-1
   into --json as a fake stream divergence). *)
let test_fingerprint_gate () =
  let text = read_whole "golden/nginx-benign.jsonl" in
  let tampered =
    replace_once ~sub:"\"fingerprint\":\"fnv1a64:"
      ~by:"\"fingerprint\":\"fnv1a64:0000" text
  in
  let tr = Trace.read_string ~file:"tampered.jsonl" tampered in
  let r = Engine.replay tr in
  Alcotest.(check bool) "gated report is not ok" false (Engine.ok r);
  (match r.rp_header_mismatch with
  | Some (recorded, deployed) ->
    Alcotest.(check bool) "recorded side is the tampered fingerprint" true
      (Astring.String.is_prefix ~affix:"fnv1a64:0000" recorded);
    Alcotest.(check bool) "deployed side differs" true
      (not (String.equal recorded deployed))
  | None -> Alcotest.fail "expected rp_header_mismatch = Some _");
  Alcotest.(check int) "no divergence rows" 0 (List.length r.rp_divergences);
  Alcotest.(check int) "no traps judged" 0 r.rp_traps_replayed;
  (* JSON shape: a structured header_mismatch member, an empty
     divergence array, no fake per-trap row. *)
  let j = Engine.report_to_json r in
  (match Report.Json.member "header_mismatch" j with
  | Some (Report.Json.Obj fields) ->
    Alcotest.(check bool) "recorded and deployed members" true
      (List.mem_assoc "recorded" fields && List.mem_assoc "deployed" fields)
  | _ -> Alcotest.fail "JSON lacks the header_mismatch object");
  (match Report.Json.member "divergences" j with
  | Some (Report.Json.List l) ->
    Alcotest.(check int) "empty divergence array" 0 (List.length l)
  | _ -> Alcotest.fail "JSON lacks the divergences array");
  (* An untampered gate-free report must not grow the member. *)
  let clean = Engine.replay (Trace.read_string ~file:"c.jsonl" text) in
  Alcotest.(check bool) "clean report has no header_mismatch member" true
    (Report.Json.member "header_mismatch" (Engine.report_to_json clean) = None)

(* Tampering with the header cycle total is a run-level divergence. *)
let test_cycle_total_divergence () =
  let text = read_whole "golden/vsftpd-attack.jsonl" in
  let tr = Trace.read_string ~file:"tampered.jsonl" text in
  let bumped =
    { tr with t_header = { tr.t_header with h_cycles = tr.t_header.h_cycles + 1 } }
  in
  let r = Engine.replay bumped in
  Alcotest.(check bool) "bumped cycle total diverges" false (Engine.ok r);
  match r.rp_divergences with
  | [ d ] -> Alcotest.(check string) "field" "total-cycles" d.dv_field
  | ds -> Alcotest.failf "expected 1 divergence, got %d" (List.length ds)

(* --- differential replay ---------------------------------------------- *)

let flip_count (r : Engine.diff_report) =
  List.length r.dr_allow_to_deny + List.length r.dr_deny_to_allow

(* Rewrite one v3 section body through [f], fixing the length prefix. *)
let edit_section name f text =
  let rec go acc = function
    | [] -> List.rev acc
    | l :: rest ->
      if String.starts_with ~prefix:("section " ^ name ^ " ") l then begin
        let count, flag = Scanf.sscanf l "section %s %d %s%!" (fun _ c fl -> (c, fl)) in
        let body = List.filteri (fun i _ -> i < count) rest in
        let rest = List.filteri (fun i _ -> i >= count) rest in
        let body = f body in
        let hdr = Printf.sprintf "section %s %d %s" name (List.length body) flag in
        go (List.rev_append (hdr :: body) acc) rest
      end
      else go (l :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' text))

let against_of_text (base : Bastion.Api.protected) text =
  Bastion.Metadata_io.restore base.inst.iprog (Bastion.Metadata_io.parse text)

(* Unchanged metadata: the differential replay is the regression
   oracle — every trap matches, nothing flips, nothing moves, and the
   cycle attribution is byte-identical. *)
let test_diff_same_metadata () =
  with_temp_trace (fun path ->
      ignore
        (Engine.record_run ~pre_resolve:true ~app:"nginx" ~scale:"small"
           ~defense:Drivers.Bastion_full ~path ());
      let tr = Trace.read_file path in
      let r = Engine.diff_replay tr in
      Alcotest.(check bool) "same metadata" true r.dr_same_metadata;
      Alcotest.(check bool) "diff ok" true (Engine.diff_ok r);
      Alcotest.(check int) "all traps matched" r.dr_traps_recorded
        r.dr_traps_matched;
      Alcotest.(check int) "no flips" 0 (flip_count r);
      Alcotest.(check int) "no context moves" 0 (List.length r.dr_context_moves);
      Alcotest.(check int) "no tier movement" 0 r.dr_tier_moves;
      Alcotest.(check int) "no fresh unmatched traps" 0 r.dr_fresh_unmatched;
      Alcotest.(check int) "no unconsumed recorded traps" 0
        r.dr_unconsumed_recorded;
      Alcotest.(check int) "per-trap cycles identical" 0 r.dr_trap_cycle_delta;
      Alcotest.(check int) "total cycles identical" r.dr_cycles_recorded
        r.dr_cycles_replayed;
      let diag =
        List.fold_left
          (fun a (b, af, c) -> if String.equal b af then a + c else a)
          0 r.dr_tier_matrix
      in
      Alcotest.(check int) "matrix diagonal covers every matched trap"
        r.dr_traps_matched diag)

(* Mutation (a): drop the static pre-resolution records.  No verdict
   may flip — static AI verification is an optimisation, not a policy —
   but the matched traps must visibly move off the pre-resolved tier
   and the fresh judging must get dearer. *)
let test_diff_dropped_pre_resolution () =
  with_temp_trace (fun path ->
      ignore
        (Engine.record_run ~pre_resolve:true ~app:"nginx" ~scale:"small"
           ~defense:Drivers.Bastion_full ~path ());
      let tr = Trace.read_file path in
      let base = Engine.base_bundle tr in
      let text =
        edit_section "static"
          (List.filter (fun l ->
               not (String.starts_with ~prefix:"pre-resolved" l)))
          (Bastion.Metadata_io.write base)
      in
      let r = Engine.diff_replay ~against:(against_of_text base text) tr in
      Alcotest.(check bool) "metadata changed" false r.dr_same_metadata;
      Alcotest.(check int) "no verdict flips" 0 (flip_count r);
      Alcotest.(check int) "no context moves" 0 (List.length r.dr_context_moves);
      Alcotest.(check bool) "still a benign diff" true (Engine.diff_ok r);
      Alcotest.(check bool) "traps moved off the pre-resolved tier" true
        (List.exists
           (fun (b, a, _) ->
             String.equal b "pre-resolved" && not (String.equal a "pre-resolved"))
           r.dr_tier_matrix);
      Alcotest.(check bool) "movement counted" true (r.dr_tier_moves > 0);
      Alcotest.(check bool) "fresh judging got dearer" true
        (r.dr_trap_cycle_delta > 0))

(* Mutation (b): mark every untainted slot rank tainted.  The cheap
   taint-ranked AI path is disabled, so traps fall to costlier tiers —
   again with zero verdict flips. *)
let test_diff_taint_rank_flip () =
  with_temp_trace (fun path ->
      ignore
        (Engine.record_run ~pre_resolve:true ~app:"vsftpd" ~scale:"small"
           ~defense:Drivers.Bastion_full ~path ());
      let tr = Trace.read_file path in
      let base = Engine.base_bundle tr in
      let text =
        edit_section "static"
          (List.map (fun l ->
               if
                 String.starts_with ~prefix:"slot-rank " l
                 && String.ends_with ~suffix:" u" l
               then String.sub l 0 (String.length l - 1) ^ "t"
               else l))
          (Bastion.Metadata_io.write base)
      in
      let r = Engine.diff_replay ~against:(against_of_text base text) tr in
      Alcotest.(check bool) "metadata changed" false r.dr_same_metadata;
      Alcotest.(check int) "no verdict flips" 0 (flip_count r);
      Alcotest.(check bool) "still a benign diff" true (Engine.diff_ok r);
      Alcotest.(check bool) "cheap-path traps fell to the full walk" true
        (List.exists
           (fun (b, a, _) -> String.equal b "cheap" && String.equal a "full")
           r.dr_tier_matrix);
      Alcotest.(check bool) "fresh judging got dearer" true
        (r.dr_trap_cycle_delta > 0))

(* Mutation (c): remove the CF valid-caller edges.  Every sensitive
   trap the recorded run allowed is now denied by the fresh
   control-flow check — each one an allow->deny flip anchored to its
   recorded line, and the diff is no longer benign. *)
let test_diff_removed_cf_edges () =
  with_temp_trace (fun path ->
      ignore
        (Engine.record_run ~app:"sqlite" ~scale:"small"
           ~defense:Drivers.Bastion_full ~path ());
      let tr = Trace.read_file path in
      let base = Engine.base_bundle tr in
      let text =
        edit_section "cfg"
          (List.filter (fun l ->
               not (String.starts_with ~prefix:"valid-caller " l)))
          (Bastion.Metadata_io.write base)
      in
      let r = Engine.diff_replay ~against:(against_of_text base text) tr in
      Alcotest.(check bool) "metadata changed" false r.dr_same_metadata;
      Alcotest.(check bool) "flips detected" true
        (List.length r.dr_allow_to_deny > 0);
      Alcotest.(check int) "no deny-to-allow flips" 0
        (List.length r.dr_deny_to_allow);
      Alcotest.(check bool) "diff is not benign" false (Engine.diff_ok r);
      List.iter
        (fun (f : Engine.flip) ->
          Alcotest.(check string) "recorded side allowed" "allowed" f.fl_before;
          Alcotest.(check bool) "fresh side is a control-flow denial" true
            (Astring.String.is_infix ~affix:"control-flow" f.fl_after);
          Alcotest.(check bool) "anchored to a recorded trap" true
            (f.fl_line > 1 && f.fl_seq >= 0))
        r.dr_allow_to_deny)

(* The inverse direction: replaying an unenriched recording against an
   enriched bundle moves AI work from the full walk down to the static
   tiers, with zero flips and a negative cycle delta. *)
let test_diff_enrichment_moves_tiers () =
  with_temp_trace (fun path ->
      ignore
        (Engine.record_run ~app:"nginx" ~scale:"small"
           ~defense:Drivers.Bastion_full ~path ());
      let tr = Trace.read_file path in
      let against = Bastion_analysis.Preresolve.enrich (Engine.base_bundle tr) in
      let r = Engine.diff_replay ~against tr in
      Alcotest.(check bool) "metadata changed" false r.dr_same_metadata;
      Alcotest.(check int) "no flips" 0 (flip_count r);
      Alcotest.(check bool) "benign diff" true (Engine.diff_ok r);
      Alcotest.(check bool) "AI work moved to cheaper static tiers" true
        (List.exists
           (fun (b, a, _) ->
             String.equal b "full" && not (String.equal a "full"))
           r.dr_tier_matrix);
      Alcotest.(check bool) "fresh judging got cheaper" true
        (r.dr_trap_cycle_delta < 0))

(* The regression oracle CI runs: every checked-in golden trace
   diff-replays clean against the current in-tree compile pass. *)
let test_golden_diff_oracle () =
  List.iter
    (fun file ->
      let tr = Trace.read_file file in
      let r = Engine.diff_replay tr in
      Alcotest.(check bool) (file ^ " metadata unchanged") true
        r.dr_same_metadata;
      Alcotest.(check bool) (file ^ " diff clean") true (Engine.diff_ok r);
      Alcotest.(check int) (file ^ " zero tier movement") 0 r.dr_tier_moves;
      Alcotest.(check int) (file ^ " zero cycle delta") 0 r.dr_trap_cycle_delta;
      Alcotest.(check int) (file ^ " every trap matched") tr.t_header.h_traps
        r.dr_traps_matched;
      Alcotest.(check int) (file ^ " nothing unconsumed") 0
        r.dr_unconsumed_recorded;
      Alcotest.(check int) (file ^ " nothing unmatched") 0 r.dr_fresh_unmatched)
    golden_files

(* --- pinned re-execution behaviour ------------------------------------- *)

(* The fingerprint gate holds for attack traces too: the session is
   staged, its fingerprint compared, and nothing is judged. *)
let test_attack_fingerprint_gate () =
  let text = read_whole "golden/vsftpd-attack.jsonl" in
  let tampered =
    replace_once ~sub:"\"fingerprint\":\"fnv1a64:"
      ~by:"\"fingerprint\":\"fnv1a64:0000" text
  in
  let r = Engine.replay ~strict:true (Trace.read_string ~file:"t.jsonl" tampered) in
  Alcotest.(check bool) "header mismatch reported" true
    (Option.is_some r.rp_header_mismatch);
  Alcotest.(check int) "no traps replayed" 0 r.rp_traps_replayed;
  Alcotest.(check int) "no divergence rows" 0 (List.length r.rp_divergences)

(* The golden NGINX trace with trap seq 3's callsite moved to an
   address no call site owns. *)
let rip_tampered () =
  let rec_prefix = "\"seq\":3,\"kind\":\"trap\",\"sysno\":288,\"sysname\":\"accept4\",\"rip\":" in
  Trace.read_string ~file:"rip.jsonl"
    (replace_once ~sub:(rec_prefix ^ "\"0x40fcc0\"") ~by:(rec_prefix ^ "\"0x400008\"")
       (read_whole "golden/nginx-benign.jsonl"))

(* Strict replay injects the recorded record unconditionally, tampered
   rip included: the monitor denies it at call-type, and following the
   recorded allow afterwards shifts every later trap's timing. *)
let test_strict_injects_tampered_rip () =
  let r = Engine.replay ~strict:true (rip_tampered ()) in
  Alcotest.(check (list (pair int string))) "divergence rows"
    [
      (251, "verdict"); (251, "dur_cycles"); (251, "cache");
      (251, "ptrace_calls"); (251, "ptrace_words"); (251, "shadow_probes");
      (251, "phases"); (256, "start_cycles"); (256, "phases");
      (261, "start_cycles"); (261, "phases"); (266, "start_cycles");
      (266, "phases"); (0, "total-cycles");
    ]
    (List.map (fun (d : Engine.divergence) -> (d.dv_line, d.dv_field))
       r.rp_divergences);
  match r.rp_divergences with
  | d :: _ ->
    Alcotest.(check bool) "denied at call-type" true
      (Astring.String.is_prefix ~affix:"denied[call-type" d.dv_replayed)
  | [] -> Alcotest.fail "no divergences"

(* Differential replay injects a record only where its (sysno, rip)
   is the live trap's: the tampered record never matches, so the fresh
   run reads the tracee live from there on and nothing flips. *)
let test_diff_guards_tampered_rip () =
  let r = Engine.diff_replay (rip_tampered ()) in
  Alcotest.(check int) "matched" 3 r.dr_traps_matched;
  Alcotest.(check int) "fresh unmatched" 4 r.dr_fresh_unmatched;
  Alcotest.(check int) "unconsumed" 4 r.dr_unconsumed_recorded;
  Alcotest.(check int) "no flips" 0 (flip_count r);
  Alcotest.(check bool) "benign diff" true (Engine.diff_ok r)

(* A run without a monitor has nothing to match or judge. *)
let test_diff_vanilla_recording () =
  with_temp_trace (fun path ->
      ignore
        (Engine.record_run ~app:"nginx" ~scale:"small" ~defense:Drivers.Vanilla
           ~path ());
      let r = Engine.diff_replay (Trace.read_file path) in
      Alcotest.(check int) "nothing matched" 0 r.dr_traps_matched;
      Alcotest.(check bool) "diff ok" true (Engine.diff_ok r))

(* An attack trace's base bundle is its victim's compile pass, with or
   without pre-resolution. *)
let test_attack_base_bundle () =
  List.iter
    (fun file ->
      let tr = Trace.read_file file in
      let attack_id =
        match tr.t_header.h_kind with
        | Trace.Attack { attack_id; _ } -> attack_id
        | Trace.Run _ -> Alcotest.failf "%s is not an attack trace" file
      in
      let attack = Result.get_ok (Engine.attack_of ~id:attack_id) in
      List.iter
        (fun pre_resolve ->
          let tr =
            { tr with t_header = { tr.t_header with h_pre_resolve = pre_resolve } }
          in
          let fresh =
            Bastion.Api.protect ~protect_filesystem:attack.a_fs_scope
              (attack.a_victim.v_build ())
          in
          let fresh =
            if pre_resolve then Bastion_analysis.Preresolve.enrich fresh else fresh
          in
          Alcotest.(check string)
            (Printf.sprintf "%s (pre_resolve %b)" file pre_resolve)
            (Bastion.Metadata_io.write fresh)
            (Bastion.Metadata_io.write (Engine.base_bundle tr)))
        [ false; true ])
    [ "golden/nginx-attack.jsonl"; "golden/sqlite-attack.jsonl";
      "golden/vsftpd-attack.jsonl" ]

(* An undefended attack run has no monitor, so its trace has nothing
   to replay: every entry point refuses the header before running. *)
let test_undefended_attack_refused () =
  let tr =
    Trace.read_string ~file:"none.jsonl"
      (replace_once ~sub:"\"config\":\"full\"" ~by:"\"config\":\"none\""
         (read_whole "golden/vsftpd-attack.jsonl"))
  in
  let refused name f =
    match f () with
    | () -> Alcotest.failf "%s accepted an undefended attack trace" name
    | exception Trace.Malformed { line; _ } ->
      Alcotest.(check int) (name ^ " refuses at line 1") 1 line
  in
  refused "strict replay" (fun () -> ignore (Engine.replay ~strict:true tr));
  refused "diff replay" (fun () -> ignore (Engine.diff_replay tr));
  refused "base bundle" (fun () -> ignore (Engine.base_bundle tr))

(* A ring that dropped events would write a trace the reader rejects:
   the writer `run --audit` shares refuses it and writes nothing. *)
let test_dropped_ring_refused () =
  with_temp_trace (fun path ->
      Sys.remove path;
      let recorder = Obs.Recorder.create ~tracing:true ~ring_capacity:8 () in
      let a = Result.get_ok (Engine.app_of ~name:"nginx" ~scale:"small") in
      let m = Drivers.run ~recorder a Drivers.Bastion_full in
      Alcotest.(check bool) "the ring dropped events" true
        (Obs.Recorder.events_dropped recorder > 0);
      (match
         Engine.write_run ~recorder ~path ~app:"nginx" ~scale:"small"
           ~trap_cache:true ~pre_resolve:false ~prefilter:None m
       with
      | _ -> Alcotest.fail "wrote a trace from a ring that dropped events"
      | exception Failure _ -> ());
      Alcotest.(check bool) "nothing written" false (Sys.file_exists path))

let suites =
  [
    ( "replay",
      [
        Alcotest.test_case "golden corpus replays divergence-free" `Quick
          test_golden_corpus;
        Alcotest.test_case "attack record then replay" `Quick
          test_record_replay_attack;
        Alcotest.test_case "vanilla run records and replays" `Quick
          test_record_replay_vanilla;
        Alcotest.test_case "reader rejects malformed traces" `Quick
          test_reader_rejections;
        Alcotest.test_case "corrupted verdict is flagged with its line" `Quick
          test_corrupted_verdict;
        Alcotest.test_case "fingerprint mismatch refuses judgement" `Quick
          test_fingerprint_gate;
        Alcotest.test_case "cycle-total tamper is a run divergence" `Quick
          test_cycle_total_divergence;
        Alcotest.test_case "diff-replay: same metadata is a clean oracle" `Quick
          test_diff_same_metadata;
        Alcotest.test_case "diff-replay: dropped pre-resolution moves tiers"
          `Quick test_diff_dropped_pre_resolution;
        Alcotest.test_case "diff-replay: tainted ranks disable the cheap path"
          `Quick test_diff_taint_rank_flip;
        Alcotest.test_case "diff-replay: removed CF edges flip verdicts" `Quick
          test_diff_removed_cf_edges;
        Alcotest.test_case "diff-replay: enrichment moves tiers down" `Quick
          test_diff_enrichment_moves_tiers;
        Alcotest.test_case "diff-replay: golden corpus is the oracle" `Quick
          test_golden_diff_oracle;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_record_replay_equivalence; prop_bitflip_total ]
      @ [
          Alcotest.test_case "attack trace fingerprint mismatch is gated" `Quick
            test_attack_fingerprint_gate;
          Alcotest.test_case "strict replay injects a tampered rip" `Quick
            test_strict_injects_tampered_rip;
          Alcotest.test_case "diff-replay: tampered rip falls back to live"
            `Quick test_diff_guards_tampered_rip;
          Alcotest.test_case "diff-replay: vanilla recording matches nothing"
            `Quick test_diff_vanilla_recording;
          Alcotest.test_case "attack base bundle is the victim's compile"
            `Quick test_attack_base_bundle;
          Alcotest.test_case "undefended attack traces are refused" `Quick
            test_undefended_attack_refused;
          Alcotest.test_case "recording refuses a ring that dropped events"
            `Quick test_dropped_ring_refused;
        ] );
  ]
