(* The committed-artifact checks (Testlib.Artifacts): the prefilter
   artifact and a fresh 16-tracee fleet sweep hold their invariants, and
   each check fires on a committed document edited in memory, naming the
   artifact and the field. *)

module A = Testlib.Artifacts
module J = Report.Json

let test_prefilter_artifact () =
  A.(holds (prefilter ~fast:(committed fastpath_file) (committed prefilter_file)))

(* A sweep a quarter the committed size meets every invariant but the
   size floors. *)
let test_fleet_sweep () =
  let a = Workloads.Fleet.ablation ~tracees:16 ~shards:4 ~arrivals:1200 ~points:5 () in
  A.holds (A.fleet ~committed:false (Workloads.Fleet.ablation_json a))

(* --- the checks fire --------------------------------------------------- *)

(* A path into a document: an object member, or every list element
   whose members equal the given ones. *)
type step = Key of string | Rows of (string * J.t) list

let rec edit path f (j : J.t) : J.t =
  match (path, j) with
  | [], _ -> f j
  | Key k :: rest, J.Obj fields ->
    J.Obj (List.map (fun (k', v) -> (k', if k' = k then edit rest f v else v)) fields)
  | Rows want :: rest, J.List items ->
    J.List
      (List.map
         (fun r ->
           if List.for_all (fun (k, v) -> J.member k r = Some v) want then edit rest f r else r)
         items)
  | _ -> Alcotest.fail "the edit path does not fit the document"

let set v _ = v
let add d = function J.Num f -> J.Num (f +. d) | _ -> Alcotest.fail "not a number"

let fast () = A.committed A.fastpath_file
let with_fast check doc = check ~fast:(fast ()) doc

(* [fires name file check path f field]: [check] reports a violation of
   [file] naming [field] once [f] rewrites the committed document at
   [path]. *)
let fires name file check path f field =
  Alcotest.test_case name `Quick (fun () ->
      let violations = check (edit path f (A.committed file)) in
      let named v =
        Astring.String.is_prefix ~affix:(file ^ ": ") v && Astring.String.is_infix ~affix:field v
      in
      if not (List.exists named violations) then
        Alcotest.failf "no violation of %s names %s; got [%s]" file field
          (String.concat "; " violations))

let row app (k, v) = Rows [ ("app", J.Str app); (k, J.Str v) ]
let static_arm = Rows [ ("policy", J.Str "static") ]
let every_point = Rows []

let suites =
  [
    ( "artifacts",
      [
        Alcotest.test_case "BENCH_prefilter.json shape" `Quick test_prefilter_artifact;
        Alcotest.test_case "16-tracee fleet sweep shape" `Quick test_fleet_sweep;
      ] );
    ( "artifact-checks",
      [
        fires "cache-on/off pair swapped" A.fastpath_file A.fastpath
          [ Key "results"; row "NGINX" ("defense", "CET+CT+CF+AI"); Key "trap_cache" ]
          (function J.Bool b -> J.Bool (not b) | v -> v)
          "trap_cache";
        fires "tainted slot pre-resolved" A.static_file (with_fast A.static)
          [ Key "pre_resolved_slots"; Key "SQLite"; Key "tainted_pre_resolved" ]
          (set (J.Num 1.)) "tainted_pre_resolved";
        fires "slot breakdown does not sum" A.static_file (with_fast A.static)
          [ Key "pre_resolved_slots"; Key "NGINX"; Key "dead_site" ]
          (add 1.) "dead_site";
        fires "shard count diverged from serial" A.parallel_file (with_fast A.parallel)
          [ Key "results"; Rows [ ("shards", J.Num 4.) ]; Key "matches_serial" ]
          (set (J.Bool false)) "matches_serial";
        fires "static off row moved" A.static_file (with_fast A.static)
          [ Key "results"; row "vsftpd" ("config", "off"); Key "cycles" ]
          (add 1.) "off row: cycles";
        fires "prefilter off row moved" A.prefilter_file (with_fast A.prefilter)
          [ Key "results"; row "vsftpd" ("prefilter", "off"); Key "cycles" ]
          (add 1.) "off row: cycles";
        fires "tiered not below cache-on" A.prefilter_file (with_fast A.prefilter)
          [ Key "results"; row "NGINX" ("prefilter", "tiered"); Key "cycles" ]
          (fun _ -> J.Num (A.num "cycles" (A.cache_on (fast ()) "NGINX")))
          "tiered cycles";
        fires "an attack uncaught" A.prefilter_file (with_fast A.prefilter)
          [ Key "attack_tiers"; Key "uncaught" ]
          (set (J.Num 1.)) "attack_tiers.uncaught";
        fires "policy arm dropped" A.fleet_file (A.fleet ~committed:true) [ Key "policies" ]
          (function
            | J.List arms ->
              J.List (List.filter (fun p -> J.member "policy" p <> Some (J.Str "steal")) arms)
            | v -> v)
          "policies";
        fires "p99 above p99.9" A.fleet_file (A.fleet ~committed:true)
          [ Key "policies"; static_arm; Key "results"; every_point; Key "e2e" ]
          (fun e -> edit [ Key "p99" ] (set (J.Num (A.num "p999" e +. 1.))) e)
          "e2e percentiles";
        fires "static arm stole" A.fleet_file (A.fleet ~committed:true)
          [ Key "policies"; static_arm; Key "results"; every_point; Key "steals" ]
          (set (J.Num 1.)) "static: steals";
      ] );
  ]
