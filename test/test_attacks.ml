(* Security case-study tests (Table 6).

   Quick cases cover the catalog's shape and one representative attack
   per category end-to-end; the Slow case replays the full 32-attack
   matrix and checks every row against the paper's verdicts. *)

let test_catalog_shape () =
  Alcotest.(check int) "32 attacks" 32 Attacks.Catalog.count;
  let count cat =
    List.length
      (List.filter (fun (a : Attacks.Attack.t) -> String.equal a.a_category cat)
         Attacks.Catalog.all)
  in
  Alcotest.(check int) "18 ROP" 18 (count "ROP");
  Alcotest.(check int) "9 direct" 9 (count "Direct");
  Alcotest.(check int) "5 indirect" 5 (count "Indirect");
  (* Ids are unique. *)
  let ids = List.map (fun (a : Attacks.Attack.t) -> a.a_id) Attacks.Catalog.all in
  Alcotest.(check int) "unique ids" 32 (List.length (List.sort_uniq String.compare ids));
  (* Every attack is blocked by at least one context (the paper's
     headline claim). *)
  List.iter
    (fun (a : Attacks.Attack.t) ->
      Alcotest.(check bool)
        (a.a_id ^ " blocked by some context")
        true
        (a.a_expected.e_ct || a.a_expected.e_cf || a.a_expected.e_ai))
    Attacks.Catalog.all

let find id =
  List.find (fun (a : Attacks.Attack.t) -> String.equal a.a_id id) Attacks.Catalog.all

let check_row (r : Attacks.Runner.row) =
  if not (Attacks.Runner.matches_expectation r) then
    Alcotest.failf "%s diverges from Table 6: undef=%s ct=%s cf=%s ai=%s full=%s"
      r.r_attack.a_id
      (Attacks.Runner.outcome_name r.r_undefended)
      (Attacks.Runner.outcome_name r.r_ct)
      (Attacks.Runner.outcome_name r.r_cf)
      (Attacks.Runner.outcome_name r.r_ai)
      (Attacks.Runner.outcome_name r.r_full)

let test_one id () = check_row (Attacks.Runner.evaluate (find id))

let test_full_catalog () =
  List.iter (fun a -> check_row (Attacks.Runner.evaluate a)) Attacks.Catalog.all

let test_dep_guard () =
  (* The attacker primitives respect the threat model: no writes to
     code/rodata or into the hidden shadow region. *)
  let prog = Testlib.exec_program () in
  let machine = Machine.create prog in
  Alcotest.check_raises "code write faults"
    (Attacks.Primitives.Dep_violation Machine.Layout.code_base) (fun () ->
      Attacks.Primitives.poke machine Machine.Layout.code_base 1L);
  Alcotest.check_raises "shadow write faults"
    (Attacks.Primitives.Dep_violation Machine.Layout.shadow_base) (fun () ->
      Attacks.Primitives.poke machine Machine.Layout.shadow_base 1L);
  (* Globals are fair game. *)
  Attacks.Primitives.poke machine (Machine.global_address machine "gctx") 5L;
  Alcotest.(check int64) "global poked" 5L
    (Attacks.Primitives.peek machine (Machine.global_address machine "gctx"))

let suites =
  [
    ( "attacks",
      [
        Alcotest.test_case "catalog shape" `Quick test_catalog_shape;
        Alcotest.test_case "DEP / shadow-hiding guard" `Quick test_dep_guard;
        Alcotest.test_case "ROP representative" `Quick (test_one "rop-exec-nginx-1");
        Alcotest.test_case "root-ROP representative" `Quick (test_one "rop-root-daemon");
        Alcotest.test_case "direct representative (CsCFI)" `Quick
          (test_one "newton-cscfi");
        Alcotest.test_case "CVE representative (nginx 2013-2028)" `Quick
          (test_one "cve-2013-2028");
        Alcotest.test_case "indirect representative (NEWTON CPI)" `Quick
          (test_one "newton-cpi");
        Alcotest.test_case "data-only representative (AOCR nginx 2)" `Quick
          (test_one "aocr-nginx-2");
        Alcotest.test_case "COOP representative" `Quick (test_one "coop-chrome");
        Alcotest.test_case "full Table 6 matrix" `Slow test_full_catalog;
      ]
      @ List.map
          (fun (a : Attacks.Attack.t) ->
            Alcotest.test_case
              (Printf.sprintf "table6 row: %s" a.a_id)
              `Quick
              (fun () -> check_row (Attacks.Runner.evaluate a)))
          Attacks.Catalog.all );
  ]

(* Appended: every victim program must run clean under full BASTION
   when no attack is installed (false-positive check across all the
   diverse victim code shapes). *)
let all_victims =
  Attacks.Victims.
    [
      nginx; sqlite; apache; chrome; loader_app; priv_daemon; ffmpeg_http;
      ffmpeg_rtmp; php; sudo; libtiff; python;
    ]

let test_victim_benign (v : Attacks.Victims.t) () =
  let prog = v.v_build () in
  let protected_prog = Bastion.Api.protect prog in
  let session = Bastion.Api.launch protected_prog () in
  v.v_setup session.process;
  Testlib.check_exit (Machine.run session.machine);
  Alcotest.(check int) "no denials" 0
    (List.length (Bastion.Monitor.denials session.monitor))

let suites =
  match suites with
  | [ (name, cases) ] ->
    [
      ( name,
        cases
        @ List.map
            (fun (v : Attacks.Victims.t) ->
              Alcotest.test_case
                (Printf.sprintf "benign victim: %s" v.v_name)
                `Quick (test_victim_benign v))
            all_victims );
    ]
  | other -> other

(* Appended: CET intercepts ROP before the monitor even sees a trap
   (§10.1 — the paper evaluates BASTION's ROP defense in CET's absence;
   with CET the shadow stack fires first). *)
let test_rop_with_cet () =
  let attack = find "rop-exec-nginx-1" in
  let prog = attack.a_victim.v_build () in
  let protected_prog = Bastion.Api.protect prog in
  let session =
    Bastion.Api.launch
      ~machine_config:{ Machine.default_config with cet = true; fuel = Attacks.Runner.attack_fuel }
      protected_prog ()
  in
  attack.a_victim.v_setup session.process;
  attack.a_install session.machine;
  Testlib.check_fault (Machine.run session.machine) Testlib.is_cet_violation "cet"

(* Risk ranking sanity (§11.3). *)
let test_risk_ranking () =
  let ranking = Attacks.Risk.rank () in
  Alcotest.(check bool) "nonempty" true (ranking <> []);
  (match ranking with
  | top :: _ -> Alcotest.(check string) "execve ranks first" "execve" top.r_name
  | [] -> ());
  Alcotest.(check bool) "all goals in protected scope" true
    (Attacks.Risk.all_goals_sensitive ());
  let total = List.fold_left (fun acc (e : Attacks.Risk.entry) -> acc + e.r_attacks) 0 ranking in
  Alcotest.(check int) "every attack counted" Attacks.Catalog.count total

let suites =
  match suites with
  | [ (name, cases) ] ->
    [
      ( name,
        cases
        @ [
            Alcotest.test_case "ROP dies at CET when enabled" `Quick test_rop_with_cet;
            Alcotest.test_case "risk ranking (§11.3)" `Quick test_risk_ranking;
          ] );
    ]
  | other -> other

(* Appended: the runner's compile cache.  Every run of an attack starts
   a fresh session from its victim's cached deployment; these cases
   hold that path to a run over a freshly protected bundle, and check
   the premises of the cache key. *)
module Runner = Attacks.Runner

(* [Runner.evaluate]'s seven configurations. *)
let row_configs =
  [ (Runner.Undefended, None); (Runner.Only_ct, None); (Runner.Only_cf, None);
    (Runner.Only_ai, None); (Runner.Full_bastion, None);
    (Runner.Full_bastion, Some Kernel.Seccomp.Flow_standalone);
    (Runner.Full_bastion, Some Kernel.Seccomp.Flow_tiered) ]

(* What one run decides and costs: its outcome and, for a monitored
   run, its cycle total, trap count and denials. *)
let run_sig ?bundle ~pre_resolve (a : Attacks.Attack.t) (config, prefilter) =
  let session = ref None in
  let outcome =
    Runner.run ?bundle ~pre_resolve ?prefilter ~on_session:(fun s -> session := Some s) a
      config
  in
  ( Runner.outcome_name outcome,
    match !session with
    | None -> (0, 0, [])
    | Some (s : Bastion.Api.session) ->
      ( s.machine.stats.cycles,
        s.process.trap_count,
        List.map
          (fun (d : Bastion.Monitor.denial) -> (d.d_context, d.d_detail))
          (Bastion.Monitor.denials s.monitor) ) )

(* Without and with pre-resolution, whose bundles the cache keys
   apart. *)
let test_cached_runs_equal_fresh () =
  List.iter
    (fun pre_resolve ->
      List.iter
        (fun (a : Attacks.Attack.t) ->
          let fresh =
            Bastion.Api.protect ~protect_filesystem:a.a_fs_scope (a.a_victim.v_build ())
          in
          let fresh = if pre_resolve then Bastion_analysis.Preresolve.enrich fresh else fresh in
          List.iter
            (fun ((config, prefilter) as c) ->
              let name =
                Printf.sprintf "%s under %s%s%s" a.a_id (Runner.config_name config)
                  (match prefilter with
                  | None -> ""
                  | Some Kernel.Seccomp.Flow_standalone -> " (pre-filter alone)"
                  | Some Kernel.Seccomp.Flow_tiered -> " (tiered)")
                  (if pre_resolve then ", pre-resolved" else "")
              in
              Alcotest.(check (pair string (triple int int (list (pair string string)))))
                name
                (run_sig ~bundle:fresh ~pre_resolve a c)
                (run_sig ~pre_resolve a c))
            row_configs)
        Attacks.Catalog.all)
    [ false; true ]

(* The cache keys a compiled victim by its name: attacks naming one
   victim must carry the one victim value, and building it twice must
   give the same program. *)
let test_cache_key_premises () =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (a : Attacks.Attack.t) ->
      match Hashtbl.find_opt by_name a.a_victim.v_name with
      | Some (v : Attacks.Victims.t) ->
        Alcotest.(check bool) (a.a_id ^ " shares its victim") true (v == a.a_victim)
      | None -> Hashtbl.replace by_name a.a_victim.v_name a.a_victim)
    Attacks.Catalog.all;
  Hashtbl.iter
    (fun name (v : Attacks.Victims.t) ->
      let pp () = Format.asprintf "%a" Sil.Pp.pp_prog (v.v_build ()) in
      Alcotest.(check string) (name ^ " builds deterministically") (pp ()) (pp ()))
    by_name

let outcomes (r : Runner.row) =
  r.r_attack.a_id
  :: List.map Runner.outcome_name
       [ r.r_undefended; r.r_ct; r.r_cf; r.r_ai; r.r_full; r.r_prefilter; r.r_tiered ]

(* Several domains fill the cache at once.  No case that runs before
   this one evaluates attacks with pre-resolution, so the sharded
   matrix compiles every pre-resolved victim itself, concurrently. *)
let test_cache_filled_across_domains () =
  let sharded, _ = Runner.evaluate_all_sharded ~pre_resolve:true ~shards:3 () in
  let serial = Runner.evaluate_all ~pre_resolve:true () in
  Alcotest.(check (list (list string))) "sharded rows = serial rows"
    (List.map outcomes serial) (List.map outcomes sharded)

let suites =
  match suites with
  | [ (name, cases) ] ->
    [
      ( name,
        cases
        @ [
            Alcotest.test_case "compile cache filled across domains" `Quick
              test_cache_filled_across_domains;
            Alcotest.test_case "cached runs equal fresh runs" `Quick
              test_cached_runs_equal_fresh;
            Alcotest.test_case "compile-cache key premises" `Quick test_cache_key_premises;
          ] );
    ]
  | other -> other
