(* Tests for the trap fast path: the CT+CF verdict cache (hit/miss,
   epoch invalidation, key sensitivity down to single-bit token
   corruption), the coalesced ptrace snapshot (per-trap call count),
   the cache-on/off cycle win on the real workloads, the Table 6
   invariance, and the bench harness's JSON round-trip. *)

module VC = Bastion.Verdict_cache
module D = Workloads.Drivers
module B = Sil.Builder

let i64 = Sil.Types.I64

(* --- verdict cache units ---------------------------------------------- *)

let chain1 = [ ("main", None); ("helper", Some 0xBEEF_CAFEL) ]

(* The key of a stack given as an innermost-first [(function, return
   token)] chain, every name hashed on the fly. *)
let key_of ~sysno ~rip chain =
  VC.key_of_frames ~sysno ~rip ~names:(VC.names [||])
    (List.map (fun (f, tok) -> Testlib.frame_view f tok) chain)

let test_cache_hit_miss () =
  let c = VC.create ~size:64 () in
  Alcotest.(check int) "size rounded to power of two" 64 (VC.size c);
  let k = key_of ~sysno:9 ~rip:0x400010L chain1 in
  Alcotest.(check bool) "cold probe misses" false (VC.probe c k);
  VC.record c k;
  Alcotest.(check bool) "probe after record hits" true (VC.probe c k);
  let k_other_sysno = key_of ~sysno:10 ~rip:0x400010L chain1 in
  let k_other_rip = key_of ~sysno:9 ~rip:0x400018L chain1 in
  Alcotest.(check bool) "different sysno misses" false (VC.probe c k_other_sysno);
  Alcotest.(check bool) "different rip misses" false (VC.probe c k_other_rip);
  Alcotest.(check int) "hit count" 1 (VC.hits c);
  Alcotest.(check int) "miss count" 3 (VC.misses c);
  Alcotest.(check int) "record count" 1 (VC.records c)

let test_cache_key_chain_sensitivity () =
  let key chain = key_of ~sysno:9 ~rip:0x400010L chain in
  let base = key chain1 in
  Alcotest.(check bool) "key is deterministic" true (Int64.equal base (key chain1));
  Alcotest.(check bool) "token value matters" false
    (Int64.equal base (key [ ("main", None); ("helper", Some 0xBEEF_CAFFL) ]));
  Alcotest.(check bool) "token presence matters" false
    (Int64.equal base (key [ ("main", None); ("helper", None) ]));
  Alcotest.(check bool) "function name matters" false
    (Int64.equal base (key [ ("main", None); ("helpers", Some 0xBEEF_CAFEL) ]));
  Alcotest.(check bool) "chain order matters" false
    (Int64.equal base (key (List.rev chain1)));
  Alcotest.(check bool) "chain length matters" false
    (Int64.equal base (key (chain1 @ [ ("leaf", Some 1L) ])))

let test_cache_epoch_invalidation () =
  let c = VC.create ~size:64 () in
  let k = key_of ~sysno:9 ~rip:0x400010L chain1 in
  VC.record c k;
  Alcotest.(check bool) "hits before bump" true (VC.probe c k);
  VC.bump_epoch c;
  Alcotest.(check int) "epoch advanced" 1 (VC.epoch c);
  Alcotest.(check bool) "stale entry misses after bump" false (VC.probe c k);
  VC.record c k;
  Alcotest.(check bool) "re-recorded under new epoch hits" true (VC.probe c k)

(* qcheck: corrupting any single bit of any cached return token changes
   the key and therefore forces a miss — the safety argument for ROP'd
   or pivoted stacks, made exact by the key's bijective mixing.  Checked
   on the reference chain key and on the frame-folded key the monitor
   uses, with every name once looked up by code-image index and once
   hashed on the fly. *)
let prop_token_corruption_misses =
  QCheck.Test.make ~count:500
    ~name:"single-bit return-token corruption forces a cache miss"
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 6)
           (pair (int_range 0 20) (map Int64.of_int int)))
        small_nat (int_range 0 63))
    (fun (raw, which, bit) ->
      let idx = which mod List.length raw in
      let corrupted =
        List.mapi
          (fun i (f, tok) ->
            if i = idx then (f, Int64.logxor tok (Int64.shift_left 1L bit)) else (f, tok))
          raw
      in
      let name i = Printf.sprintf "fn%d" i in
      let names = VC.names (Array.init 21 name) in
      let rip = 0x400100L in
      let keys =
        [
          (fun raw ->
            Testlib.Cache_key_ref.key ~sysno:9 ~rip
              ~chain:(List.map (fun (i, tok) -> (name i, Some tok)) raw));
          (fun raw -> key_of ~sysno:9 ~rip (List.map (fun (i, tok) -> (name i, Some tok)) raw));
          (fun raw ->
            VC.key_of_frames ~sysno:9 ~rip ~names
              (List.map (fun (i, tok) -> Testlib.frame_view ~fidx:i (name i) (Some tok)) raw));
        ]
      in
      List.for_all
        (fun key ->
          let c = VC.create ~size:256 () in
          let k = key raw and k' = key corrupted in
          VC.record c k;
          (not (Int64.equal k k')) && VC.probe c k && not (VC.probe c k'))
        keys)

(* The frame-folded key equals the reference chain key on random stacks:
   entry frames with no token, tokens with bit 63 set, empty and long
   function names, each frame's name either read from the name table
   by code-image index or (index -1, a name outside the program)
   hashed on the fly. *)
let prop_frame_key_matches_reference =
  let open QCheck.Gen in
  let name =
    frequency
      [ (1, return ""); (4, string_size ~gen:printable (int_range 1 12));
        (1, string_size ~gen:printable (int_range 100 400)) ]
  in
  let token =
    frequency
      [ (1, return None); (3, map Option.some int64);
        (1, map (fun t -> Some (Int64.logor t Int64.min_int)) int64) ]
  in
  let case =
    array_size (int_range 1 8) name >>= fun names ->
    let frame =
      map3
        (fun by_index i tok ->
          if by_index then Testlib.frame_view ~fidx:i names.(i) tok
          else Testlib.frame_view (names.(i) ^ "~") tok)
        bool (int_bound (Array.length names - 1)) token
    in
    map3 (fun frames sysno rip -> (names, frames, sysno, rip))
      (list_size (int_range 0 12) frame) (int_bound 400) int64
  in
  QCheck.Test.make ~count:500 ~name:"frame-folded cache key equals the reference chain key"
    (QCheck.make case)
    (fun (names, frames, sysno, rip) ->
      Int64.equal
        (VC.key_of_frames ~sysno ~rip ~names:(VC.names names) frames)
        (Testlib.Cache_key_ref.key ~sysno ~rip ~chain:(Testlib.Cache_key_ref.chain_of frames)))

(* --- coalesced snapshot: per-trap ptrace call count ------------------- *)

(* A deep direct-call chain above a single mmap callsite: with per-frame
   reads every trap would cost [depth + 1] process_vm_readv calls; the
   coalesced snapshot caps it at two (stack span + slot spans). *)
let chain_program depth traps =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  let open Sil.Operand in
  let leaf = Printf.sprintf "level%d" depth in
  let fb = B.func pb leaf ~params:[ ("n", i64) ] in
  B.call fb "mmap" [ Null; Var (B.param fb 0); const 3; const 2; const (-1); const 0 ];
  B.ret fb None;
  B.seal fb;
  for i = depth - 1 downto 1 do
    let fb = B.func pb (Printf.sprintf "level%d" i) ~params:[ ("n", i64) ] in
    B.call fb (Printf.sprintf "level%d" (i + 1)) [ Var (B.param fb 0) ];
    B.ret fb None;
    B.seal fb
  done;
  let fb = B.func pb "main" ~params:[] in
  Workloads.Appkit.counted_loop fb ~tag:"traps" ~count:traps (fun fb ->
      B.call fb "level1" [ const 4096 ]);
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let run_chain ~trap_cache depth traps =
  let protected_prog = Bastion.Api.protect (chain_program depth traps) in
  let session =
    Bastion.Api.launch
      ~monitor_config:{ Bastion.Monitor.default_config with trap_cache }
      protected_prog ()
  in
  (match Machine.run session.machine with
  | Machine.Exited _ -> ()
  | Machine.Faulted f -> Alcotest.fail (Machine.fault_to_string f));
  session

let test_snapshot_coalesces_reads () =
  let depth = 16 and traps = 50 in
  let session = run_chain ~trap_cache:true depth traps in
  let tracer = session.process.tracer in
  let trap_count = session.process.trap_count in
  Alcotest.(check bool) "program trapped" true (trap_count >= traps);
  (* Per-frame reads would make calls_made >= frames_walked; the
     snapshot issues at most two calls per trap regardless of depth. *)
  Alcotest.(check bool)
    (Printf.sprintf "coalesced: %d calls for %d frames walked"
       tracer.Kernel.Ptrace.calls_made tracer.Kernel.Ptrace.frames_walked)
    true
    (tracer.Kernel.Ptrace.calls_made < tracer.Kernel.Ptrace.frames_walked);
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 snapshot calls per trap (%d/%d)"
       tracer.Kernel.Ptrace.calls_made trap_count)
    true
    (tracer.Kernel.Ptrace.calls_made <= 2 * trap_count)

let test_cache_wins_on_chain () =
  let depth = 16 and traps = 50 in
  let on = run_chain ~trap_cache:true depth traps in
  let off = run_chain ~trap_cache:false depth traps in
  let hits, _, _ = Bastion.Monitor.cache_stats on.monitor in
  Alcotest.(check bool) "repeated identical traps hit" true (hits > 0);
  Alcotest.(check bool) "cache-on cycles strictly lower" true
    (on.machine.stats.cycles < off.machine.stats.cycles)

(* --- workload-level acceptance: cycles drop, hit rate high ------------ *)

let test_workload_cache_cycle_decrease () =
  List.iter
    (fun (app : D.app) ->
      List.iter
        (fun defense ->
          let on = D.run ~trap_cache:true app defense in
          let off = D.run ~trap_cache:false app defense in
          let label =
            Printf.sprintf "%s/%s" app.D.app_name (D.defense_name defense)
          in
          let hits =
            match on.D.m_monitor with
            | Some m ->
              let h, _, _ = Bastion.Monitor.cache_stats m in
              h
            | None -> 0
          in
          Alcotest.(check bool) (label ^ ": cache hits > 0") true (hits > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s: cache-on cycles strictly decrease (%d < %d)"
               label on.D.m_cycles off.D.m_cycles)
            true
            (on.D.m_cycles < off.D.m_cycles);
          (* The cache must not change what the monitor observes. *)
          Alcotest.(check int) (label ^ ": same traps") off.D.m_traps on.D.m_traps;
          Alcotest.(check int) (label ^ ": same syscalls") off.D.m_syscalls
            on.D.m_syscalls)
        [ D.Bastion_full; D.Bastion_fs Bastion.Monitor.Fs_full ])
    [ D.nginx (); D.sqlite (); D.vsftpd () ]

(* --- Table 6 must be byte-identical cache on/off ---------------------- *)

let render_rows rows =
  let mark = function
    | Attacks.Runner.Blocked _ -> "blocked"
    | Attacks.Runner.Succeeded -> "succeeded"
    | Attacks.Runner.Inert -> "inert"
  in
  String.concat "\n"
    (List.map
       (fun (r : Attacks.Runner.row) ->
         Printf.sprintf "%s undef=%s ct=%s cf=%s ai=%s full=%s match=%b"
           r.r_attack.Attacks.Attack.a_id (mark r.r_undefended) (mark r.r_ct)
           (mark r.r_cf) (mark r.r_ai) (mark r.r_full)
           (Attacks.Runner.matches_expectation r))
       rows)

let test_table6_invariant_under_cache () =
  let on = render_rows (Attacks.Runner.evaluate_all ~trap_cache:true ()) in
  let off = render_rows (Attacks.Runner.evaluate_all ~trap_cache:false ()) in
  Alcotest.(check string) "attack matrix byte-identical cache on/off" off on

(* --- bench JSON round-trip -------------------------------------------- *)

let json_eq = Alcotest.testable (Fmt.of_to_string Report.Json.to_string) ( = )

let test_json_roundtrip () =
  let open Report.Json in
  let doc =
    Obj
      [
        ("schema", Str "bastion-bench/1");
        ("empty_list", List []);
        ("empty_obj", Obj []);
        ("flag", Bool true);
        ("off", Bool false);
        ("nothing", Null);
        ("cycles", Num 136662881.0);
        ("rate", Num 0.984375);
        ("neg", Num (-42.0));
        ("text", Str "quote \" backslash \\ newline \n tab \t done");
        ( "results",
          List [ Obj [ ("app", Str "NGINX"); ("traps", Num 1136.0) ]; Null ] );
      ]
  in
  Alcotest.check json_eq "emit/parse roundtrip" doc (of_string (to_string doc));
  Alcotest.(check bool) "parse error raised on garbage" true
    (match of_string "{ \"a\": }" with
    | exception Report.Json.Parse_error _ -> true
    | _ -> false)

(* Random JSON documents (integer-valued numbers, printable strings)
   survive the emit/parse round trip. *)
let gen_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Report.Json.Null;
        map (fun b -> Report.Json.Bool b) bool;
        map (fun n -> Report.Json.Num (float_of_int n)) small_signed_int;
        map
          (fun s -> Report.Json.Str s)
          (string_size ~gen:(char_range '\032' '\126') (int_range 0 12));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               ( 1,
                 map (fun xs -> Report.Json.List xs)
                   (list_size (int_range 0 4) (self (n / 2))) );
               ( 1,
                 map (fun xs -> Report.Json.Obj xs)
                   (list_size (int_range 0 4)
                      (pair
                         (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
                         (self (n / 2)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"random JSON survives emit/parse"
    (QCheck.make gen_json)
    (fun doc ->
      Report.Json.of_string (Report.Json.to_string doc) = doc)

(* The committed fast-path artifact parses and holds its invariants. *)
let test_bench_artifact_parses () =
  Testlib.Artifacts.(holds (fastpath (committed fastpath_file)))

let suites =
  [
    ( "fastpath-cache",
      [
        Alcotest.test_case "hit/miss accounting" `Quick test_cache_hit_miss;
        Alcotest.test_case "key chain sensitivity" `Quick test_cache_key_chain_sensitivity;
        Alcotest.test_case "epoch invalidation" `Quick test_cache_epoch_invalidation;
        QCheck_alcotest.to_alcotest prop_token_corruption_misses;
        QCheck_alcotest.to_alcotest prop_frame_key_matches_reference;
      ] );
    ( "fastpath-snapshot",
      [
        Alcotest.test_case "coalesced reads per trap" `Quick test_snapshot_coalesces_reads;
        Alcotest.test_case "cache wins on deep chain" `Quick test_cache_wins_on_chain;
        Alcotest.test_case "workload cycle decrease" `Slow test_workload_cache_cycle_decrease;
        Alcotest.test_case "Table 6 invariant under cache" `Slow
          test_table6_invariant_under_cache;
      ] );
    ( "fastpath-json",
      [
        Alcotest.test_case "handwritten roundtrip" `Quick test_json_roundtrip;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
        Alcotest.test_case "bench artifact parses" `Quick test_bench_artifact_parses;
      ] );
  ]
