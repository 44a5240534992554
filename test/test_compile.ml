(* The compile pass's whole-program facts: the one-pass call graph and
   the address-taken set against their reference
   ([Testlib.Callgraph_ref]), the table-driven validator against its
   reference ([Testlib.Validate_ref]), and a function whose address
   escapes only through a return. *)

module Cg = Sil.Callgraph

(* Every model at the golden-corpus and default scales, every victim
   program, and the small fixtures. *)
let corpus () =
  [
    ("nginx small", Workloads.Nginx_model.build Workloads.Nginx_model.small);
    ("nginx", Workloads.Nginx_model.build Workloads.Nginx_model.default);
    ("sqlite small", Workloads.Sqlite_model.build Workloads.Sqlite_model.small);
    ("sqlite", Workloads.Sqlite_model.build Workloads.Sqlite_model.default);
    ("vsftpd small", Workloads.Vsftpd_model.build Workloads.Vsftpd_model.small);
    ("vsftpd", Workloads.Vsftpd_model.build Workloads.Vsftpd_model.default);
    ("exec_program", Testlib.exec_program ());
    ("ret_escape_program", Testlib.ret_escape_program ());
  ]
  @ List.map (fun (v : Attacks.Victims.t) -> ("victim " ^ v.v_name, v.v_build ())) Test_misc.victims

let reference_diff prog = Testlib.Callgraph_ref.diff (Cg.build prog) (Testlib.Callgraph_ref.build prog)

let address_taken_agrees prog =
  Cg.Sset.equal (Cg.address_taken_of prog) (Cg.build prog).address_taken

let prop_callgraph_reference =
  QCheck.Test.make ~count:500 ~name:"one-pass call graph = the reference build, field by field"
    Testlib.Prog_gen.arbitrary (fun prog ->
      match reference_diff prog with
      | [] -> true
      | fields -> QCheck.Test.fail_reportf "differs in %s" (String.concat ", " fields))

let prop_address_taken_of =
  QCheck.Test.make ~count:500 ~name:"address_taken_of = the built graph's address-taken set"
    Testlib.Prog_gen.arbitrary address_taken_agrees

let errors_of errs = List.map (fun (e : Sil.Validate.error) -> (e.loc, e.message)) errs

let prop_validate_reference =
  QCheck.Test.make ~count:500 ~name:"validator = the reference validator, error for error"
    Testlib.Prog_gen.arbitrary (fun prog ->
      let got = errors_of (Sil.Validate.check prog) in
      let want = errors_of (Testlib.Validate_ref.check prog) in
      if got = want then true
      else
        QCheck.Test.fail_reportf "got %d errors, reference %d" (List.length got) (List.length want))

let test_callgraph_corpus () =
  List.iter
    (fun (name, prog) ->
      (match reference_diff prog with
      | [] -> ()
      | fields -> Alcotest.failf "%s: call graph differs in %s" name (String.concat ", " fields));
      if not (address_taken_agrees prog) then Alcotest.failf "%s: address_taken_of differs" name)
    (corpus ())

let test_validate_corpus () =
  List.iter
    (fun (name, prog) ->
      let got = errors_of (Sil.Validate.check prog) in
      Alcotest.(check (list (pair string string)))
        (name ^ ": same errors") (errors_of (Testlib.Validate_ref.check prog)) got)
    (Testlib.malformed_progs () @ corpus ());
  List.iter
    (fun (name, prog) ->
      if Sil.Validate.check prog = [] then Alcotest.failf "%s: no error reported" name)
    (Testlib.malformed_progs ())

(* A return and a branch condition take a function's address as much as
   an instruction operand or a global initialiser does. *)
let test_terminators_take_addresses () =
  let open Sil.Instr in
  let prog = Testlib.exec_program () in
  let f = Sil.Prog.find_func prog "compute" in
  let retarget (b : Sil.Func.block) =
    match b.term with
    | Ret _ -> { b with term = Branch (Sil.Operand.Func_addr "do_exec", b.label, b.label) }
    | Jump _ | Branch _ | Halt -> b
  in
  Hashtbl.replace prog.funcs "compute" { f with blocks = List.map retarget f.blocks };
  let taken = Cg.address_taken_of prog in
  Alcotest.(check bool) "branch on &do_exec" true (Cg.Sset.mem "do_exec" taken);
  Alcotest.(check bool) "ret &opener" true
    (Cg.is_address_taken (Cg.build (Testlib.ret_escape_program ())) "opener")

(* [pick] returns [&opener] and [main] calls it: the lint gate must pass
   the bundle and the benign run must exit cleanly, as they do when the
   address is first copied into a local. *)
let test_ret_escape_runs_clean () =
  Bastion_analysis.Lint.register_api_validator ();
  List.iter
    (fun via_local ->
      let name = if via_local then "via a local" else "returned directly" in
      let p =
        match Bastion.Api.protect ~validate:true (Testlib.ret_escape_program ~via_local ()) with
        | p -> p
        | exception Bastion.Api.Validation_failed msgs ->
          Alcotest.failf "%s: lint gate refused the bundle: %s" name (String.concat "; " msgs)
      in
      let session = Bastion.Api.launch p () in
      Testlib.check_exit (Machine.run session.machine);
      Alcotest.(check int) (name ^ ": no denials") 0
        (List.length (Bastion.Monitor.denials session.monitor)))
    [ false; true ]

let suites =
  [
    ( "compile-pass",
      List.map QCheck_alcotest.to_alcotest
        [ prop_callgraph_reference; prop_address_taken_of; prop_validate_reference ]
      @ [
          Alcotest.test_case "call graph = reference on models and victims" `Quick
            test_callgraph_corpus;
          Alcotest.test_case "validator = reference on fixtures, models and victims" `Quick
            test_validate_corpus;
          Alcotest.test_case "terminators take addresses" `Quick test_terminators_take_addresses;
          Alcotest.test_case "address returned by a function runs clean" `Quick
            test_ret_escape_runs_clean;
        ] );
  ]
