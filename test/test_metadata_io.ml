(* Metadata serialisation: the compiler -> metadata file -> monitor
   boundary of §7.1.  A restored bundle must behave exactly like the
   in-memory one, for benign runs and under attack. *)

let roundtrip prog =
  let p = Bastion.Api.protect prog in
  let text = Bastion.Metadata_io.write p in
  let restored = Bastion.Metadata_io.restore p.inst.iprog (Bastion.Metadata_io.parse text) in
  (p, text, restored)

let test_header_and_shape () =
  let _, text, _ = roundtrip (Testlib.exec_program ()) in
  Alcotest.(check bool) "header" true
    (Astring.String.is_prefix ~affix:"BASTION-METADATA v3" text);
  Alcotest.(check bool) "has calltype records" true
    (Astring.String.is_infix ~affix:"\ncalltype " text);
  Alcotest.(check bool) "has valid-caller records" true
    (Astring.String.is_infix ~affix:"\nvalid-caller " text);
  Alcotest.(check bool) "has callsite records" true
    (Astring.String.is_infix ~affix:"\ncallsite " text);
  (* v3: every record lives inside a named, length-prefixed section,
     each section's count matches its body exactly, and the canonical
     sections appear in file order with their canonical flags. *)
  let lines = String.split_on_char '\n' text in
  let sections =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"section " l then
          Some (Scanf.sscanf l "section %s %d %s%!" (fun n c f -> (n, c, f)))
        else None)
      lines
  in
  Alcotest.(check (list (triple string int string)))
    "section table (names, flags, order)"
    (List.map
       (fun (n, c, _) ->
         ( n, c,
           match List.assoc n Bastion.Metadata_io.known_sections with
           | `Required -> "required"
           | `Optional -> "optional" ))
       sections)
    sections;
  Alcotest.(check (list string)) "canonical section order"
    (List.map fst Bastion.Metadata_io.known_sections)
    (List.map (fun (n, _, _) -> n) sections);
  (* Counts are exact: total lines = header + section headers + bodies. *)
  let body = List.fold_left (fun acc (_, c, _) -> acc + c) 0 sections in
  let non_blank = List.filter (fun l -> String.length l > 0) lines in
  Alcotest.(check int) "length-prefixed counts cover every record"
    (List.length non_blank)
    (1 + List.length sections + body)

let test_roundtrip_equivalence () =
  let p, _, restored = roundtrip (Testlib.exec_program ()) in
  (* Same call-type table. *)
  Hashtbl.iter
    (fun sysno (ct : Bastion.Calltype.call_type) ->
      let ct' = Bastion.Calltype.call_type restored.calltype sysno in
      Alcotest.(check bool) "directly" ct.directly ct'.directly;
      Alcotest.(check bool) "indirectly" ct.indirectly ct'.indirectly)
    p.calltype.by_sysno;
  (* Same pair count and sensitive callsites. *)
  Alcotest.(check int) "cfg pairs" (Bastion.Cfg_analysis.pair_count p.cfg)
    (Bastion.Cfg_analysis.pair_count restored.cfg);
  Alcotest.(check bool) "sensitive callsites" true
    (Sil.Loc.Set.equal p.cfg.sensitive_callsites restored.cfg.sensitive_callsites);
  (* Same sensitive items and callsite metadata. *)
  Alcotest.(check bool) "items" true
    (Bastion.Arg_analysis.Item_set.equal p.analysis.items restored.analysis.items);
  let key (cm : Bastion.Instrument.callsite_meta) = (cm.cm_id, cm.cm_loc, cm.cm_specs) in
  Alcotest.(check bool) "callsites" true
    (List.sort compare (List.map key p.inst.callsites)
    = List.sort compare (List.map key restored.inst.callsites))

let test_restored_bundle_runs () =
  let _, _, restored = roundtrip (Testlib.exec_program ()) in
  let session = Bastion.Api.launch restored () in
  Testlib.check_exit (Machine.run session.machine);
  Alcotest.(check int) "execve executed" 1
    (List.length (Kernel.Process.executed session.process "execve"))

let test_restored_bundle_blocks_attacks () =
  let _, _, restored = roundtrip (Testlib.exec_program ()) in
  let session = Bastion.Api.launch restored () in
  let m = session.machine in
  let evil = Machine.intern_string m "/bin/sh" in
  let fired = ref false in
  m.on_instr <-
    Some
      (fun m (loc : Sil.Loc.t) ->
        if (not !fired) && String.equal loc.func "do_exec" then begin
          fired := true;
          Machine.poke m (Machine.global_address m "gctx") evil
        end);
  Testlib.check_fault (Machine.run m)
    (Testlib.is_monitor_kill ~context:"argument-integrity")
    "argument-integrity"

let test_file_roundtrip () =
  let p = Bastion.Api.protect (Testlib.exec_program ()) in
  let file = Filename.temp_file "bastion" ".meta" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Bastion.Metadata_io.save p ~file;
      let restored = Bastion.Metadata_io.load ~file p.inst.iprog in
      let session = Bastion.Api.launch restored () in
      Testlib.check_exit (Machine.run session.machine))

let test_parse_errors () =
  let expect_error text =
    match Bastion.Metadata_io.parse text with
    | exception Bastion.Metadata_io.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected a parse error"
  in
  expect_error "not a metadata file";
  expect_error "BASTION-METADATA v2\nfrobnicate 1 2 3";
  expect_error "BASTION-METADATA v2\ncalltype 59 z";
  expect_error "BASTION-METADATA v2\npre-resolved 1 z 3";
  expect_error "BASTION-METADATA v2\npre-resolved-ctx 1 2 3";
  expect_error "BASTION-METADATA v2\nslot-rank 1 2 x";
  expect_error "BASTION-METADATA v2\ndead-site z"

let test_old_version_rejected () =
  (* A v1 file must be rejected with a clear version message, not a
     record-level parse failure. *)
  match Bastion.Metadata_io.parse "BASTION-METADATA v1\ncalltype 59 direct" with
  | exception Bastion.Metadata_io.Parse_error (line, msg) ->
    Alcotest.(check int) "error on the header line" 1 line;
    Alcotest.(check bool) "names the unsupported version" true
      (Astring.String.is_infix ~affix:"v1" msg);
    Alcotest.(check bool) "names both supported versions" true
      (Astring.String.is_infix ~affix:"v3" msg
      && Astring.String.is_infix ~affix:"v2" msg)
  | _ -> Alcotest.fail "expected a version error"

(* Field-order-insensitive view of a parsed file: the reader
   accumulates records in reverse, so section skipping must be checked
   up to per-family ordering. *)
let norm (p : Bastion.Metadata_io.parsed) =
  let s l = List.sort compare l in
  {
    p with
    Bastion.Metadata_io.pr_calltype = s p.pr_calltype;
    pr_indirect_callsites = s p.pr_indirect_callsites;
    pr_indirect_targets = s p.pr_indirect_targets;
    pr_valid_callers = s p.pr_valid_callers;
    pr_covered = s p.pr_covered;
    pr_sensitive_callsites = s p.pr_sensitive_callsites;
    pr_callsites = s p.pr_callsites;
    pr_items = s p.pr_items;
    pr_pre_resolved = s p.pr_pre_resolved;
    pr_pre_resolved_ctx = s p.pr_pre_resolved_ctx;
    pr_slot_ranks = s p.pr_slot_ranks;
    pr_dead_sites = s p.pr_dead_sites;
  }

let base_meta_text =
  lazy (Bastion.Metadata_io.write (Bastion.Api.protect (Testlib.exec_program ())))

let test_v2_still_parses () =
  (* The v2 compatibility path: the same records without a section
     table, under the old header, parse to the identical result. *)
  let text = Lazy.force base_meta_text in
  let v2_text =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
        if String.equal l Bastion.Metadata_io.header then
          Some Bastion.Metadata_io.header_v2
        else if String.starts_with ~prefix:"section " l then None
        else Some l)
    |> String.concat "\n"
  in
  Alcotest.(check bool) "v2 and v3 readers agree on the same records" true
    (norm (Bastion.Metadata_io.parse v2_text)
    = norm (Bastion.Metadata_io.parse text))

(* qcheck: a v3 reader skips unknown *optional* sections wholesale —
   injecting any number of them, with any bodies, at any section
   boundary, parses to exactly the section-free result.  This is the
   forward-compatibility law that lets future compilers add sections
   without breaking deployed monitors. *)
let mystery_sections_qcheck =
  QCheck.Test.make ~count:30
    ~name:"metadata-io skips unknown optional sections (forward compat)"
    QCheck.(small_list (pair small_nat (int_bound 4)))
    (fun injections ->
      let text = Lazy.force base_meta_text in
      let clean = norm (Bastion.Metadata_io.parse text) in
      let lines = String.split_on_char '\n' text in
      let n = List.length lines in
      (* Legal insertion points: right after the header, before any
         existing section header, or at end of file (before the final
         blank produced by the trailing newline). *)
      let boundaries =
        List.concat
          (List.mapi
             (fun i l ->
               if i > 0 && String.starts_with ~prefix:"section " l then [ i ]
               else if i = n - 1 && String.length l = 0 then [ i ]
               else [])
             lines)
      in
      let ins : (int, string list) Hashtbl.t = Hashtbl.create 8 in
      List.iteri
        (fun k (bi, cnt) ->
          let pos = List.nth boundaries (bi mod List.length boundaries) in
          let sec =
            Printf.sprintf "section zmystery%d %d optional" k cnt
            :: List.init cnt (fun j -> Printf.sprintf "future-record %d %d" k j)
          in
          Hashtbl.replace ins pos
            (sec @ Option.value ~default:[] (Hashtbl.find_opt ins pos)))
        injections;
      let out =
        List.concat
          (List.mapi
             (fun i l ->
               Option.value ~default:[] (Hashtbl.find_opt ins i) @ [ l ])
             lines)
      in
      norm (Bastion.Metadata_io.parse (String.concat "\n" out)) = clean)

let test_unknown_required_rejected () =
  (* An unknown *required* section must stop the reader with an error
     positioned at the section header: skipping it would silently drop
     records the producer declared soundness-critical. *)
  let text = Lazy.force base_meta_text in
  let injected =
    match String.split_on_char '\n' text with
    | hdr :: rest ->
      String.concat "\n"
        (hdr :: "section exotic 1 required" :: "exotic-record 0" :: rest)
    | [] -> assert false
  in
  match Bastion.Metadata_io.parse injected with
  | exception Bastion.Metadata_io.Parse_error (line, msg) ->
    Alcotest.(check int) "positioned at the section header" 2 line;
    Alcotest.(check bool) "names the section and the reason" true
      (Astring.String.is_infix ~affix:"unknown required section exotic" msg)
  | _ -> Alcotest.fail "expected rejection of an unknown required section"

let test_v3_structural_errors () =
  (* The three structural failure modes of the sectioned format. *)
  let expect affix text =
    match Bastion.Metadata_io.parse text with
    | exception Bastion.Metadata_io.Parse_error (_, msg) ->
      Alcotest.(check bool) affix true (Astring.String.is_infix ~affix msg)
    | _ -> Alcotest.fail ("expected parse error: " ^ affix)
  in
  expect "record outside any section" "BASTION-METADATA v3\ncalltype 59 d";
  expect "truncated section"
    "BASTION-METADATA v3\nsection calltype 2 required\ncalltype 59 d";
  expect "bad section flag"
    "BASTION-METADATA v3\nsection calltype 1 mandatory\ncalltype 59 d";
  expect "negative section length"
    "BASTION-METADATA v3\nsection calltype -1 required"

let test_pre_resolved_roundtrip () =
  let p = Bastion.Api.protect (Testlib.exec_program ()) in
  let p = Bastion_analysis.Preresolve.enrich p in
  (* Guarantee at least one record even if the analysis finds none. *)
  let p =
    if Hashtbl.length p.pre_resolved > 0 then p
    else begin
      let tbl = Hashtbl.copy p.pre_resolved in
      (match p.inst.callsites with
      | cm :: _ -> Hashtbl.replace tbl cm.cm_id [ (0, 42L) ]
      | [] -> ());
      { p with pre_resolved = tbl }
    end
  in
  let restored =
    Bastion.Metadata_io.restore p.inst.iprog
      (Bastion.Metadata_io.parse (Bastion.Metadata_io.write p))
  in
  let dump tbl =
    Hashtbl.fold (fun id l acc -> (id, List.sort compare l) :: acc) tbl []
    |> List.sort compare
  in
  Alcotest.(check bool) "pre-resolved records survive" true
    (dump p.pre_resolved = dump restored.pre_resolved)

(* qcheck: arbitrary pre-resolved tables survive the text format. *)
let preres_qcheck =
  QCheck.Test.make ~count:50 ~name:"metadata-io pre-resolved table roundtrips"
    QCheck.(
      small_list (triple small_nat (int_bound 5) (map Int64.of_int int)))
    (fun records ->
      let p = Bastion.Api.protect (Testlib.exec_program ()) in
      let ids = List.map (fun (cm : Bastion.Instrument.callsite_meta) -> cm.cm_id)
          p.inst.callsites in
      QCheck.assume (ids <> []);
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (i, pos, c) ->
          let id = List.nth ids (i mod List.length ids) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl id) in
          if not (List.mem_assoc pos prev) then
            Hashtbl.replace tbl id ((pos, c) :: prev))
        records;
      let p = { p with pre_resolved = tbl } in
      let restored =
        Bastion.Metadata_io.restore p.inst.iprog
          (Bastion.Metadata_io.parse (Bastion.Metadata_io.write p))
      in
      let dump t =
        Hashtbl.fold (fun id l acc -> (id, List.sort compare l) :: acc) t []
        |> List.sort compare
      in
      dump p.pre_resolved = dump restored.pre_resolved)

let test_v2_record_families_roundtrip () =
  (* The three record families the v2 static suite added: per-context
     constants, taint ranks and dead sites all survive the text trip. *)
  let p = Bastion.Api.protect (Testlib.exec_program ()) in
  let ids =
    List.map
      (fun (cm : Bastion.Instrument.callsite_meta) -> cm.cm_id)
      p.inst.callsites
  in
  let id0 = List.nth ids 0 and id1 = List.nth ids (List.length ids - 1) in
  let pre_ctx = Hashtbl.copy p.pre_resolved_ctx in
  Hashtbl.replace pre_ctx id0 [ (0, id1, 42L); (1, id0, -7L) ];
  let ranks = Hashtbl.copy p.slot_ranks in
  Hashtbl.replace ranks id1 [ (0, true); (2, false) ];
  let dead = Hashtbl.copy p.dead_sites in
  Hashtbl.replace dead id0 ();
  let p = { p with pre_resolved_ctx = pre_ctx; slot_ranks = ranks;
            dead_sites = dead } in
  let restored =
    Bastion.Metadata_io.restore p.inst.iprog
      (Bastion.Metadata_io.parse (Bastion.Metadata_io.write p))
  in
  let dump tbl =
    Hashtbl.fold (fun id l acc -> (id, List.sort compare l) :: acc) tbl []
    |> List.sort compare
  in
  Alcotest.(check bool) "pre-resolved-ctx records survive" true
    (dump p.pre_resolved_ctx = dump restored.pre_resolved_ctx);
  Alcotest.(check bool) "slot-rank records survive" true
    (dump p.slot_ranks = dump restored.slot_ranks);
  Alcotest.(check bool) "dead-site records survive" true
    (Hashtbl.fold (fun id () acc -> id :: acc) p.dead_sites []
     |> List.sort compare
    = (Hashtbl.fold (fun id () acc -> id :: acc) restored.dead_sites []
      |> List.sort compare))

let test_enriched_workload_roundtrip () =
  (* A real enriched bundle (vsftpd carries per-context records) dumps
     and restores with every table intact. *)
  let app = Workloads.Drivers.vsftpd () in
  let p =
    Bastion_analysis.Preresolve.enrich
      (Bastion.Api.protect (Lazy.force app.prog))
  in
  Alcotest.(check bool) "vsftpd has per-context records" true
    (Hashtbl.length p.pre_resolved_ctx > 0);
  Alcotest.(check bool) "vsftpd has ranked slots" true
    (Hashtbl.length p.slot_ranks > 0);
  let restored =
    Bastion.Metadata_io.restore p.inst.iprog
      (Bastion.Metadata_io.parse (Bastion.Metadata_io.write p))
  in
  let dump tbl =
    Hashtbl.fold (fun id l acc -> (id, List.sort compare l) :: acc) tbl []
    |> List.sort compare
  in
  Alcotest.(check bool) "ctx table identical" true
    (dump p.pre_resolved_ctx = dump restored.pre_resolved_ctx);
  Alcotest.(check bool) "rank table identical" true
    (dump p.slot_ranks = dump restored.slot_ranks)

let test_restored_pre_resolved_still_checks () =
  (* A restored enriched bundle still verifies pre-resolved slots
     statically at run time. *)
  let app = Workloads.Drivers.nginx () in
  let p =
    Bastion_analysis.Preresolve.enrich
      (Bastion.Api.protect (Lazy.force app.prog))
  in
  Alcotest.(check bool) "nginx has pre-resolvable slots" true
    (Hashtbl.length p.pre_resolved > 0);
  let restored =
    Bastion.Metadata_io.restore p.inst.iprog
      (Bastion.Metadata_io.parse (Bastion.Metadata_io.write p))
  in
  let session = Bastion.Api.launch restored () in
  app.setup session.process;
  Testlib.check_exit (Machine.run session.machine);
  Alcotest.(check bool) "static AI verifications happened" true
    (Bastion.Monitor.pre_resolved_hits session.monitor > 0)

let test_workload_scale_roundtrip () =
  (* The full NGINX model's metadata survives the trip too. *)
  let prog =
    Workloads.Nginx_model.build
      { Workloads.Nginx_model.default with connections = 2; requests_per_conn = 2;
        init_mmap = 4; init_mprotect = 4; filler = false }
  in
  let p = Bastion.Api.protect prog in
  let restored =
    Bastion.Metadata_io.restore p.inst.iprog
      (Bastion.Metadata_io.parse (Bastion.Metadata_io.write p))
  in
  let session = Bastion.Api.launch restored () in
  Workloads.Nginx_model.setup
    { Workloads.Nginx_model.default with connections = 2 }
    session.process;
  Testlib.check_exit (Machine.run session.machine)

let suites =
  [
    ( "metadata-io",
      [
        Alcotest.test_case "header and record shape" `Quick test_header_and_shape;
        Alcotest.test_case "roundtrip equivalence" `Quick test_roundtrip_equivalence;
        Alcotest.test_case "restored bundle runs" `Quick test_restored_bundle_runs;
        Alcotest.test_case "restored bundle blocks attacks" `Quick
          test_restored_bundle_blocks_attacks;
        Alcotest.test_case "file save/load" `Quick test_file_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "old version rejected clearly" `Quick
          test_old_version_rejected;
        Alcotest.test_case "v2 files still parse identically" `Quick
          test_v2_still_parses;
        QCheck_alcotest.to_alcotest mystery_sections_qcheck;
        Alcotest.test_case "unknown required section rejected" `Quick
          test_unknown_required_rejected;
        Alcotest.test_case "v3 structural errors" `Quick
          test_v3_structural_errors;
        Alcotest.test_case "pre-resolved records roundtrip" `Quick
          test_pre_resolved_roundtrip;
        QCheck_alcotest.to_alcotest preres_qcheck;
        Alcotest.test_case "v2 record families roundtrip" `Quick
          test_v2_record_families_roundtrip;
        Alcotest.test_case "enriched workload bundle roundtrips" `Quick
          test_enriched_workload_roundtrip;
        Alcotest.test_case "restored pre-resolved bundle checks statically" `Slow
          test_restored_pre_resolved_still_checks;
        Alcotest.test_case "workload-scale roundtrip" `Quick test_workload_scale_roundtrip;
      ] );
  ]
