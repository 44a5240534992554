(* Remaining units: driver caching (regression), fetch-only monitor
   mode, runtime intrinsics, metadata contents, report rendering. *)

module B = Sil.Builder
open Sil.Operand

let i64 = Sil.Types.I64

(* Regression: the drivers' protect cache must distinguish parameter
   sets (a paper-scale run after a default-scale run once reused the
   wrong program). *)
let test_driver_cache_keys () =
  let small =
    Workloads.Drivers.sqlite
      ~params:
        { Workloads.Sqlite_model.default with connections = 2; txns_per_conn = 5;
          mprotect_every = 1; filler = false }
      ()
  in
  let big =
    Workloads.Drivers.sqlite
      ~params:
        { Workloads.Sqlite_model.default with connections = 3; txns_per_conn = 10;
          mprotect_every = 1; filler = false }
      ()
  in
  let m1 = Workloads.Drivers.run small Workloads.Drivers.Bastion_full in
  let m2 = Workloads.Drivers.run big Workloads.Drivers.Bastion_full in
  let mp (m : Workloads.Drivers.measurement) =
    Kernel.Process.syscall_count m.m_process (Kernel.Syscalls.number "mprotect")
  in
  Alcotest.(check int) "small run: 10 txns" 10 (mp m1);
  Alcotest.(check int) "big run: 30 txns" 30 (mp m2);
  (* Two parameter sets with one [Hashtbl.hash]: a key that hashed the
     parameters handed the second the first's program, so its
     protected run made 36,293 syscalls to its vanilla run's 6,893. *)
  let nginx (connections, requests_per_conn, page_words) =
    { Workloads.Nginx_model.small with connections; requests_per_conn; page_words }
  in
  let variants = [ nginx (43, 43, 222); nginx (60, 8, 540) ] in
  Alcotest.(check int) "the two parameter sets share a hash"
    (Hashtbl.hash (List.nth variants 0)) (Hashtbl.hash (List.nth variants 1));
  List.iter
    (fun (params : Workloads.Nginx_model.params) ->
      let app = Workloads.Drivers.nginx ~params () in
      let syscalls defense = (Workloads.Drivers.run app defense).m_syscalls in
      Alcotest.(check int)
        (Printf.sprintf "nginx %d x %d, %d words: protected = vanilla syscalls"
           params.connections params.requests_per_conn params.page_words)
        (syscalls Workloads.Drivers.Vanilla)
        (syscalls Workloads.Drivers.Bastion_full))
    variants

let test_overhead_pct_directions () =
  let fake metric : Workloads.Drivers.measurement =
    let prog = Testlib.exec_program () in
    let machine, process = Bastion.Api.launch_unprotected prog in
    {
      m_app = "x"; m_defense = Workloads.Drivers.Vanilla; m_metric = metric;
      m_cycles = 0; m_traps = 0; m_syscalls = 0; m_monitor_init_cycles = 0;
      m_process = process; m_machine = machine; m_monitor = None;
    }
  in
  let base = fake 100.0 in
  Alcotest.(check (float 0.001)) "throughput drop" 10.0
    (Workloads.Drivers.overhead_pct ~baseline:base (fake 90.0) ~higher_is_better:true);
  Alcotest.(check (float 0.001)) "latency rise" 10.0
    (Workloads.Drivers.overhead_pct ~baseline:base (fake 110.0) ~higher_is_better:false)

(* Fetch-only fs mode: state is fetched but nothing is checked — even a
   corrupted fs argument sails through (that is the point of the
   Table 7 row split). *)
let fetch_only_prog () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_len" i64 (Sil.Prog.Word 8L);
  let fb = B.func pb "main" ~params:[] in
  let len = B.local fb "len" i64 in
  B.load fb len (Sil.Place.Lglobal "g_len");
  B.call fb "write" [ const 1; Null; Var len ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let test_fs_fetch_only_checks_nothing () =
  let run fs_mode =
    let protected_prog = Bastion.Api.protect ~protect_filesystem:true (fetch_only_prog ()) in
    let session =
      Bastion.Api.launch
        ~monitor_config:{ Bastion.Monitor.default_config with fs_mode }
        protected_prog ()
    in
    let m = session.machine in
    let fired = ref false in
    m.on_instr <-
      Some
        (fun m (loc : Sil.Loc.t) ->
          if (not !fired) && String.equal loc.func "main" then begin
            match Sil.Prog.instr_at m.prog loc with
            | Sil.Instr.Call { target = Sil.Instr.Direct "write"; _ } ->
              fired := true;
              (match Machine.local_address m ~func:"main" ~var:"len" with
              | Some a -> Machine.poke m a 0x7777L
              | None -> ())
            | _ -> ()
          end);
    (Machine.run m, session)
  in
  (* Fetch-only: corruption is NOT caught. *)
  let outcome, session = run Bastion.Monitor.Fs_fetch_only in
  Testlib.check_exit outcome;
  Alcotest.(check bool) "state was fetched" true (session.process.trap_count > 0);
  (* Full: the same corruption dies. *)
  let outcome, _ = run Bastion.Monitor.Fs_full in
  Testlib.check_fault outcome
    (Testlib.is_monitor_kill ~context:"argument-integrity")
    "argument-integrity"

let test_runtime_intrinsics_direct () =
  let prog = Testlib.exec_program () in
  let machine = Machine.create prog in
  let rt = Bastion.Runtime.create () in
  Machine.poke machine 0x9000L 42L;
  Machine.poke machine 0x9008L 43L;
  ignore (Bastion.Runtime.handle rt machine ~name:"ctx_write_mem"
       ~args:(Machine.Args.of_array [| 0x9000L; 2L |]));
  Alcotest.(check (option int64)) "word 0 shadowed" (Some 42L)
    (Bastion.Shadow_memory.shadow rt.shadow ~addr:0x9000L);
  Alcotest.(check (option int64)) "word 1 shadowed" (Some 43L)
    (Bastion.Shadow_memory.shadow rt.shadow ~addr:0x9008L);
  ignore
    (Bastion.Runtime.handle rt machine ~name:"ctx_bind_mem"
       ~args:(Machine.Args.of_array [| 7L; 2L; 0x9000L |]));
  Alcotest.(check (option int64)) "binding recorded" (Some 0x9000L)
    (Bastion.Shadow_memory.binding rt.shadow ~id:7 ~pos:2);
  Alcotest.(check int) "counters" 1 rt.bind_mem_calls

let test_metadata_contents () =
  let prog = Testlib.exec_program () in
  let p = Bastion.Api.protect prog in
  let session = Bastion.Api.launch p () in
  let meta = session.monitor.meta in
  let layout = session.machine.layout in
  (* Every callsite entry's address decodes back to a call in the code
     image, and a direct one names the entry's callee. *)
  Hashtbl.iter
    (fun addr (e : Bastion.Metadata.cs_entry) ->
      Alcotest.(check bool) "addr matches entry" true (Int64.equal addr e.e_addr);
      match Machine.Layout.call_at layout addr with
      | Some { target = Direct f; _ } ->
        Alcotest.(check string) "direct callee matches" e.e_callee
          (Machine.Layout.image layout).funcs.(f).name
      | Some { target = Indirect _; _ } -> ()
      | Some { target = Unknown_callee f; _ } -> Alcotest.failf "call to unknown %s" f
      | None -> Alcotest.fail "cs entry without convention")
    meta.cs_by_addr;
  Alcotest.(check bool) "checked globals nonempty" true
    (List.length meta.checked_globals > 0);
  Alcotest.(check bool) "entry count counts" true (meta.entry_count > 0)

let victims =
  Attacks.Victims.
    [ nginx; sqlite; apache; chrome; loader_app; priv_daemon; ffmpeg_http; ffmpeg_rtmp; php;
      sudo; libtiff; python ]

(* A deployment started twice gives the same session as a launch of its
   bundle: the same rodata address for every string constant the
   metadata binds, the same fingerprint, the same run to the cycle and
   the same executed sensitive syscalls.  The started sessions share
   the deployment's metadata and code image. *)
let test_deployment_sessions () =
  let constants = ref 0 in
  List.iter
    (fun (v : Attacks.Victims.t) ->
      let p = Bastion.Api.protect (v.v_build ()) in
      let d = Bastion.Api.deploy p in
      let launched = Bastion.Api.launch p () in
      let started = [ Bastion.Api.start d (); Bastion.Api.start d () ] in
      List.iter
        (fun (s : Bastion.Api.session) ->
          Alcotest.(check bool) (v.v_name ^ ": metadata shared") true (s.monitor.meta == d.meta);
          Alcotest.(check bool) (v.v_name ^ ": image shared") true (s.machine.layout == d.layout))
        started;
      List.iter
        (fun (cm : Bastion.Instrument.callsite_meta) ->
          let addr = Machine.instr_address launched.machine cm.cm_loc in
          let spec (s : Bastion.Api.session) pos =
            List.assoc pos (Hashtbl.find s.monitor.meta.cs_by_addr addr).e_specs
          in
          List.iter
            (fun (pos, (b : Bastion.Arg_analysis.binding)) ->
              match b with
              | Bind_cstr text ->
                incr constants;
                List.iter
                  (fun (s : Bastion.Api.session) ->
                    match spec s pos with
                    | Spec_const a ->
                      Alcotest.(check int64) (v.v_name ^ ": same rodata address")
                        (match spec launched pos with Spec_const a0 -> a0 | Spec_mem -> 0L)
                        a;
                      Alcotest.(check string) (v.v_name ^ ": address holds the string") text
                        (Machine.read_string s.machine a)
                    | Spec_mem -> Alcotest.fail "string constant bound as memory")
                  (launched :: started)
              | Bind_const _ | Bind_faddr _ | Bind_var _ | Bind_global _ -> ())
            cm.cm_specs)
        p.inst.callsites;
      let run (s : Bastion.Api.session) =
        v.v_setup s.process;
        let outcome =
          match Machine.run s.machine with
          | Machine.Exited code -> Int64.to_string code
          | Machine.Faulted f -> Machine.fault_to_string f
        in
        let exec_log =
          List.rev_map
            (fun (e : Kernel.Process.exec_event) ->
              Printf.sprintf "%d(%s)%s" e.ev_sysno
                (String.concat "," (Array.to_list (Array.map Int64.to_string e.ev_args)))
                (Option.value ~default:"" e.ev_path))
            s.process.exec_log
        in
        ( (outcome, Bastion.Monitor.fingerprint s.monitor),
          (s.machine.stats.cycles, s.machine.stats.instrs, s.process.trap_count),
          exec_log )
      in
      let want = run launched in
      List.iter
        (fun s ->
          Alcotest.(check (triple (pair string string) (triple int int int) (list string)))
            (v.v_name ^ ": started = launched") want (run s))
        started)
    victims;
  Alcotest.(check bool) "some string constants bound" true (!constants > 0)

(* Loading checks that each string constant lands where the metadata
   says: on a clean machine of the program it does, and after an
   unrelated string has taken rodata first, a program whose constants
   are not all global initialisers is refused. *)
let test_load_checks_rodata () =
  let refused = ref 0 in
  List.iter
    (fun (v : Attacks.Victims.t) ->
      let p = Bastion.Api.protect (v.v_build ()) in
      let d = Bastion.Api.deploy p in
      Bastion.Metadata.load d.meta (Machine.create p.inst.iprog);
      let shifted = Machine.create p.inst.iprog in
      ignore (Machine.intern_string shifted "not in any program");
      match Bastion.Metadata.load d.meta shifted with
      | () -> ()
      | exception Invalid_argument _ -> incr refused)
    victims;
  Alcotest.(check bool) "a moved string is refused" true (!refused > 0)

let test_report_table () =
  let s =
    Report.Table.render
      ~align:[ Report.Table.L; R ]
      ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "beta-long"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* All lines are equal width. *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.(check bool) "right-aligned value" true
    (Astring.String.is_suffix ~affix:" 1" (List.nth lines 2))

let test_loc_module () =
  let l1 = Sil.Loc.make "f" "entry" 3 in
  let l2 = Sil.Loc.make "f" "entry" 3 in
  Alcotest.(check bool) "equal" true (Sil.Loc.equal l1 l2);
  Alcotest.(check string) "to_string" "f:entry:3" (Sil.Loc.to_string l1);
  let s = Sil.Loc.Set.add l1 (Sil.Loc.Set.singleton l2) in
  Alcotest.(check int) "set dedups" 1 (Sil.Loc.Set.cardinal s)

let suites =
  [
    ( "misc",
      [
        Alcotest.test_case "driver cache keyed by params" `Quick test_driver_cache_keys;
        Alcotest.test_case "overhead_pct directions" `Quick test_overhead_pct_directions;
        Alcotest.test_case "fs fetch-only checks nothing" `Quick
          test_fs_fetch_only_checks_nothing;
        Alcotest.test_case "runtime intrinsics" `Quick test_runtime_intrinsics_direct;
        Alcotest.test_case "metadata contents" `Quick test_metadata_contents;
        Alcotest.test_case "report table rendering" `Quick test_report_table;
        Alcotest.test_case "loc module" `Quick test_loc_module;
      ] );
  ]

(* Appended: determinism and filler generation. *)
let test_determinism () =
  let run () =
    let app =
      Workloads.Drivers.nginx
        ~params:
          { Workloads.Nginx_model.default with connections = 6; requests_per_conn = 4;
            init_mmap = 6; init_mprotect = 4; filler = false }
        ()
    in
    let m = Workloads.Drivers.run app Workloads.Drivers.Bastion_full in
    (m.m_cycles, m.m_traps, m.m_metric)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let test_filler_targets () =
  (* The padded models hit the paper's Table 5 structural rows exactly. *)
  List.iter
    (fun (prog, total, indirect) ->
      let s = Workloads.Appkit.callsite_stats prog in
      Alcotest.(check int) "total callsites" total s.total_callsites;
      Alcotest.(check int) "indirect callsites" indirect s.indirect_count)
    [
      ( Workloads.Nginx_model.build Workloads.Nginx_model.default,
        Workloads.Nginx_model.table5_total_callsites,
        Workloads.Nginx_model.table5_indirect_callsites );
      ( Workloads.Vsftpd_model.build Workloads.Vsftpd_model.default,
        Workloads.Vsftpd_model.table5_total_callsites,
        Workloads.Vsftpd_model.table5_indirect_callsites );
    ]

(* Sessions only read the code image: a digest of its marshalled bytes
   is the same before and after a benign run of each small model, and
   before and after a full Table 6 row on each victim. *)
let image_digest (l : Machine.Layout.t) = Digest.to_hex (Digest.string (Marshal.to_string l []))

let test_image_unchanged_by_runs () =
  List.iter
    (fun (name, app) ->
      let pr = Workloads.Drivers.prepare app Workloads.Drivers.Bastion_full in
      let image = pr.pr_machine.layout in
      let before = image_digest image in
      ignore (Workloads.Drivers.execute pr);
      let again = Workloads.Drivers.prepare app Workloads.Drivers.Bastion_full in
      Alcotest.(check bool) (name ^ ": sessions share the image") true
        (again.pr_machine.layout == image);
      Alcotest.(check string) (name ^ ": image unchanged by a run") before (image_digest image))
    (Workloads.Fleet.small_apps ());
  List.iter
    (fun (v : Attacks.Victims.t) ->
      match
        List.find_opt
          (fun (a : Attacks.Attack.t) -> String.equal a.a_victim.v_name v.v_name)
          Attacks.Catalog.all
      with
      | None -> ()
      | Some a ->
        let image = ref None in
        let capture (s : Bastion.Api.session) = image := Some s.machine.layout in
        ignore (Attacks.Runner.run ~on_session:capture a Attacks.Runner.Full_bastion);
        let image = Option.get !image in
        let before = image_digest image in
        ignore (Attacks.Runner.evaluate a);
        Alcotest.(check string) (v.v_name ^ ": image unchanged by a Table 6 row") before
          (image_digest image))
    victims

(* A session start builds only per-session state, sized by what it
   holds: on every victim's deployment, a fresh session's verdict cache
   and memory table stay far below the 4,096-slot cache (8,195 words)
   and the 1,024-slot table (2,049 words) a start once zero-filled. *)
let cache_budget_words = 128
let memory_budget_words = 512

let test_session_footprint () =
  List.iter
    (fun (v : Attacks.Victims.t) ->
      let d = Bastion.Api.deploy (Bastion.Api.protect (v.v_build ())) in
      let s = Bastion.Api.start d () in
      let words x = Obj.reachable_words (Obj.repr x) in
      let cache = words s.monitor.cache and mem = words s.machine.mem in
      Alcotest.(check bool)
        (Printf.sprintf "%s: verdict cache %d words, budget %d" v.v_name cache
           cache_budget_words)
        true (cache <= cache_budget_words);
      Alcotest.(check bool)
        (Printf.sprintf "%s: memory table %d words, budget %d" v.v_name mem
           memory_budget_words)
        true (mem <= memory_budget_words))
    victims

(* One check image serves every configuration: sessions started from
   one deployment (filesystem scope, pre-resolved, so slot ranks and
   cheap recipes exist) under each monitor configuration that reads
   the image differently hold the deployment's image and run exactly
   as a launch of the bundle under that configuration: outcome,
   cycles, traps, ptrace calls and words, shadow probes and denials.
   The cheap path and the sockaddr fast path each change some run, so
   the configuration is read where the image is used. *)
let test_check_image_shared () =
  let default = Bastion.Monitor.default_config in
  let configs =
    [ ("default", default);
      ("no cheap path", { default with taint_cheap_path = false });
      ("no sockaddr fast path", { default with sockaddr_fastpath = false });
      ("fs hook only", { default with fs_mode = Fs_hook_only });
      ("fs fetch only", { default with fs_mode = Fs_fetch_only });
      ("fs full", { default with fs_mode = Fs_full }) ]
  in
  let moved = Hashtbl.create 4 in
  List.iter
    (fun (v : Attacks.Victims.t) ->
      let p =
        Bastion_analysis.Preresolve.enrich
          (Bastion.Api.protect ~protect_filesystem:true (v.v_build ()))
      in
      let d = Bastion.Api.deploy p in
      let observe (s : Bastion.Api.session) =
        v.v_setup s.process;
        let outcome =
          match Machine.run s.machine with
          | Machine.Exited code -> Int64.to_string code
          | Machine.Faulted f -> Machine.fault_to_string f
        in
        ( (outcome, s.machine.stats.cycles, s.process.trap_count),
          ( s.process.tracer.calls_made,
            s.process.tracer.words_read,
            Bastion.Shadow_memory.probe_count s.runtime.shadow ),
          List.map
            (fun (dn : Bastion.Monitor.denial) ->
              Printf.sprintf "%d %s: %s" dn.d_sysno dn.d_context dn.d_detail)
            (Bastion.Monitor.denials s.monitor) )
      in
      let runs =
        List.map
          (fun (name, monitor_config) ->
            let started = Bastion.Api.start ~monitor_config d () in
            Alcotest.(check bool)
              (Printf.sprintf "%s, %s: the deployment's check image" v.v_name name)
              true
              (started.monitor.image == d.image);
            let want = observe (Bastion.Api.launch ~monitor_config p ()) in
            let got = observe started in
            Alcotest.(
              check
                (triple (triple string int int) (triple int int int) (list string)))
              (Printf.sprintf "%s, %s: started = launched" v.v_name name)
              want got;
            (name, got))
          configs
      in
      let base = List.assoc "default" runs in
      List.iter
        (fun (name, run) -> if run <> base then Hashtbl.replace moved name ())
        runs)
    victims;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " changes some run") true (Hashtbl.mem moved name))
    [ "no cheap path"; "no sockaddr fast path"; "fs full" ]

let suites =
  match suites with
  | [ (name, cases) ] ->
    [
      ( name,
        cases
        @ [
            Alcotest.test_case "simulator determinism" `Quick test_determinism;
            Alcotest.test_case "filler hits Table 5 targets" `Quick test_filler_targets;
            (* New cases go last: Alcotest reports each case with its index. *)
            Alcotest.test_case "deployment started twice = launched" `Quick
              test_deployment_sessions;
            Alcotest.test_case "loading refuses moved string constants" `Quick
              test_load_checks_rodata;
            Alcotest.test_case "runs leave the shared image unchanged" `Quick
              test_image_unchanged_by_runs;
            Alcotest.test_case "session starts stay small" `Quick test_session_footprint;
            Alcotest.test_case "one check image serves every configuration" `Quick
              test_check_image_shared;
          ] );
    ]
  | other -> other
