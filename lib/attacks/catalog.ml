(* The 32-attack catalog of Table 6.

   Categories and expected per-context verdicts follow the table:
   - 18 ROP payloads (CT bypassed, CF and AI block);
   - 9 direct syscall manipulations (all three contexts block);
   - 5 indirect manipulations with progressively fewer contexts able to
     block, down to Argument Integrity alone. *)

open Attack

let i64_of = Int64.of_int

(* --- scripting helpers --------------------------------------------- *)

let scratch (m : Machine.t) = Primitives.global m "g_scratch"

(** Plant "/bin/sh" in the victim's scratch buffer; returns its address. *)
let plant_shell (m : Machine.t) =
  let addr = scratch m in
  Primitives.plant_string m addr "/bin/sh";
  addr

(** Stack-slot address of a variable of [func], assuming a ROP pivot
    into [func]: when the corrupted return executes, the ROP'd frame is
    popped and the gadget runs in the *caller's* frame, so slots are
    relative to the second frame at corruption time. *)
let pivot_slot (m : Machine.t) ~func ~var =
  match Machine.frames m with
  | _ :: frame :: _ | [ frame ] ->
    let f = Sil.Prog.find_func m.prog func in
    let v =
      match
        List.find_opt
          (fun ((v : Sil.Operand.var), _) -> String.equal v.vname var)
          (Sil.Func.all_vars f)
      with
      | Some (v, _) -> v
      | None -> invalid_arg (Printf.sprintf "pivot_slot: %s has no %s" func var)
    in
    Machine.Memory.addr_add (Int64.of_int frame.frame_base)
      (Machine.Layout.var_offset m.layout func v.vid)
  | [] -> invalid_arg "pivot_slot: no frames"

(** Code address of the [nth] direct call to [callee] inside [in_func]
    (mid-function ROP gadget: land directly on the call, skipping
    everything before it). *)
let call_gadget (m : Machine.t) ?(nth = 1) ~in_func ~callee () =
  let f = Sil.Prog.find_func m.prog in_func in
  let count = ref 0 in
  let loc =
    List.find_map
      (fun (loc, ins) ->
        match (ins : Sil.Instr.t) with
        | Call { target = Direct c; _ } when String.equal c callee ->
          incr count;
          if !count = nth then Some loc else None
        | Call _ | Assign _ | Store _ -> None)
      (Sil.Func.instrs f)
  in
  match loc with
  | Some loc -> Machine.instr_address m loc
  | None ->
    invalid_arg (Printf.sprintf "call_gadget: no call to %s in %s" callee in_func)

(** A ROP attack: at the [nth] entry of [from], run [prep] and overwrite
    the live return address with the gadget address [target] computes. *)
let rop ?(nth = 1) ~from ~target ~prep () (m : Machine.t) =
  Hooks.install m
    [
      {
        trigger = Hooks.At_entry_nth (from, nth);
        action =
          (fun m ->
            prep m;
            Primitives.overwrite_return m (target m));
      };
    ]

(** A data/pointer corruption attack at the [nth] entry of [at]. *)
let corrupt ?(nth = 1) ~at ~action () (m : Machine.t) =
  Hooks.install m [ { trigger = Hooks.At_entry_nth (at, nth); action } ]

(* Fake ngx_exec_ctx_t in scratch: path="/bin/sh", argv=envp=NULL. *)
let plant_fake_exec_ctx (m : Machine.t) =
  let shell = plant_shell m in
  let ctx = Machine.Memory.addr_add (scratch m) 10 in
  Primitives.poke m ctx shell;
  Primitives.poke m (Machine.Memory.addr_add ctx 1) 0L;
  Primitives.poke m (Machine.Memory.addr_add ctx 2) 0L;
  ctx

(* --- 1-13: ROP, execute user command ------------------------------- *)

let rop_exec_nginx ~id ~reference ~from =
  {
    a_id = id;
    a_name = Printf.sprintf "ROP user command via ngx_execute_proc (from %s)" from;
    a_category = "ROP";
    a_reference = reference;
    a_expected = cf_ai_block;
    a_victim = Victims.nginx;
    a_fs_scope = false;
    a_goal = "execve";
    a_goal_check = goal_shell;
    a_install =
      rop ~nth:2 ~from
        ~target:(fun m -> Primitives.gadget_entry m "ngx_execute_proc")
        ~prep:(fun m ->
          let ctx = plant_fake_exec_ctx m in
          Primitives.poke m (pivot_slot m ~func:"ngx_execute_proc" ~var:"data") ctx)
        ();
  }

let rop_exec_libc ~id ~reference ~victim ~from =
  {
    a_id = id;
    a_name = Printf.sprintf "ROP user command via libc system() (%s)" victim.Victims.v_name;
    a_category = "ROP";
    a_reference = reference;
    a_expected = cf_ai_block;
    a_victim = victim;
    a_fs_scope = false;
    a_goal = "execve";
    a_goal_check = goal_shell;
    a_install =
      rop ~from
        ~target:(fun m -> Primitives.gadget_entry m "libc_system")
        ~prep:(fun m ->
          let shell = plant_shell m in
          Primitives.poke m (pivot_slot m ~func:"libc_system" ~var:"cmd") shell)
        ();
  }

let rop_user_command_attacks =
  [
    rop_exec_nginx ~id:"rop-exec-nginx-1" ~reference:"[1]" ~from:"ngx_http_handle_request";
    rop_exec_nginx ~id:"rop-exec-nginx-2" ~reference:"[3]" ~from:"ngx_process_connection";
    rop_exec_nginx ~id:"rop-exec-nginx-3" ~reference:"[5]"
      ~from:"ngx_http_get_indexed_variable";
    {
      a_id = "rop-exec-apache-1";
      a_name = "ROP user command via ap_get_exec_line";
      a_category = "ROP";
      a_reference = "[7]";
      a_expected = cf_ai_block;
      a_victim = Victims.apache;
      a_fs_scope = false;
      a_goal = "execve";
      a_goal_check = goal_shell;
      a_install =
        rop ~nth:2 ~from:"ap_handle_request"
          ~target:(fun m -> Primitives.gadget_entry m "ap_get_exec_line")
          ~prep:(fun m ->
            let shell = plant_shell m in
            Primitives.poke m (Primitives.global m "g_exec_cmdline") shell)
          ();
    };
    {
      a_id = "rop-exec-apache-2";
      a_name = "ROP user command via exec_cmd gadget";
      a_category = "ROP";
      a_reference = "[8]";
      a_expected = cf_ai_block;
      a_victim = Victims.apache;
      a_fs_scope = false;
      a_goal = "execve";
      a_goal_check = goal_shell;
      a_install =
        rop ~nth:2 ~from:"ap_log_writer"
          ~target:(fun m -> Primitives.gadget_entry m "exec_cmd")
          ~prep:(fun m ->
            let shell = plant_shell m in
            Primitives.poke m (pivot_slot m ~func:"exec_cmd" ~var:"cmd") shell)
          ();
    };
    {
      a_id = "rop-exec-daemon";
      a_name = "ROP user command via run_helper";
      a_category = "ROP";
      a_reference = "[11]";
      a_expected = cf_ai_block;
      a_victim = Victims.priv_daemon;
      a_fs_scope = false;
      a_goal = "execve";
      a_goal_check = goal_shell;
      a_install =
        rop ~from:"checksum"
          ~target:(fun m -> Primitives.gadget_entry m "run_helper")
          ~prep:(fun m ->
            let shell = plant_shell m in
            Primitives.poke m (Primitives.global m "g_helper_path") shell)
          ();
    };
    {
      a_id = "rop-exec-sudo-1";
      a_name = "ROP user command via spawn_command";
      a_category = "ROP";
      a_reference = "[13]";
      a_expected = cf_ai_block;
      a_victim = Victims.sudo;
      a_fs_scope = false;
      a_goal = "execve";
      a_goal_check = goal_shell;
      a_install =
        rop ~from:"parse_stream"
          ~target:(fun m -> Primitives.gadget_entry m "spawn_command")
          ~prep:(fun m ->
            let shell = plant_shell m in
            Primitives.poke m (Primitives.global m "g_exec_path") shell)
          ();
    };
    {
      a_id = "rop-exec-sudo-2";
      a_name = "ROP user command via spawn_command (handler gadget)";
      a_category = "ROP";
      a_reference = "[15]";
      a_expected = cf_ai_block;
      a_victim = Victims.sudo;
      a_fs_scope = false;
      a_goal = "execve";
      a_goal_check = goal_shell;
      a_install =
        rop ~from:"handle_chunk"
          ~target:(fun m -> Primitives.gadget_entry m "spawn_command")
          ~prep:(fun m ->
            let shell = plant_shell m in
            Primitives.poke m (Primitives.global m "g_exec_path") shell)
          ();
    };
    rop_exec_libc ~id:"rop-exec-php" ~reference:"[16]" ~victim:Victims.php
      ~from:"parse_stream";
    rop_exec_libc ~id:"rop-exec-ffmpeg" ~reference:"[17]" ~victim:Victims.ffmpeg_http
      ~from:"parse_stream";
    rop_exec_libc ~id:"rop-exec-libtiff" ~reference:"[18]" ~victim:Victims.libtiff
      ~from:"handle_meta";
    rop_exec_libc ~id:"rop-exec-python" ~reference:"[19]" ~victim:Victims.python
      ~from:"parse_stream";
    rop_exec_libc ~id:"rop-exec-rtmp" ~reference:"[20]" ~victim:Victims.ffmpeg_rtmp
      ~from:"handle_chunk";
  ]

(* --- 14: ROP, execute root command ---------------------------------- *)

let rop_root_attacks =
  [
    {
      a_id = "rop-root-daemon";
      a_name = "ROP root shell: setuid(0) via drop_privileges";
      a_category = "ROP";
      a_reference = "[11]";
      a_expected = cf_ai_block;
      a_victim = Victims.priv_daemon;
      a_fs_scope = false;
      a_goal = "setuid";
      a_goal_check = goal_uid0;
      a_install =
        rop ~from:"checksum"
          ~target:(fun m -> Primitives.gadget_entry m "drop_privileges")
          ~prep:(fun m -> Primitives.poke m (Primitives.global m "g_cfg_uid") 0L)
          ();
    };
  ]

(* --- 15-18: ROP, alter memory permission ---------------------------- *)

let rop_mprotect_attacks =
  [
    {
      a_id = "rop-mprotect-nginx";
      a_name = "ROP RWX via ngx_harden_memory gadget";
      a_category = "ROP";
      a_reference = "[2]";
      a_expected = cf_ai_block;
      a_victim = Victims.nginx;
      a_fs_scope = false;
      a_goal = "mprotect";
      a_goal_check = goal_rwx;
      a_install =
        rop ~nth:2 ~from:"ngx_http_handle_request"
          ~target:(fun m ->
            call_gadget m ~nth:2 ~in_func:"ngx_harden_memory" ~callee:"mprotect" ())
          ~prep:(fun m ->
            Primitives.poke m (pivot_slot m ~func:"ngx_harden_memory" ~var:"prot_rx") 7L)
          ();
    };
    {
      a_id = "rop-mprotect-sqlite-1";
      a_name = "ROP RWX via sqlite3_mem_harden gadget";
      a_category = "ROP";
      a_reference = "[4]";
      a_expected = cf_ai_block;
      a_victim = Victims.sqlite;
      a_fs_scope = false;
      a_goal = "mprotect";
      a_goal_check = goal_rwx;
      a_install =
        rop ~nth:2 ~from:"sqlite3_new_order_txn"
          ~target:(fun m ->
            call_gadget m ~in_func:"sqlite3_mem_harden" ~callee:"mprotect" ())
          ~prep:(fun m ->
            Primitives.poke m (pivot_slot m ~func:"sqlite3_mem_harden" ~var:"prots") 7L;
            Primitives.poke m
              (pivot_slot m ~func:"sqlite3_mem_harden" ~var:"region")
              (i64_of 0x700200))
          ();
    };
    {
      a_id = "rop-mprotect-sqlite-2";
      a_name = "ROP RWX via sqlite3_mem_harden gadget (VDBE entry)";
      a_category = "ROP";
      a_reference = "[6]";
      a_expected = cf_ai_block;
      a_victim = Victims.sqlite;
      a_fs_scope = false;
      a_goal = "mprotect";
      a_goal_check = goal_rwx;
      a_install =
        rop ~nth:3 ~from:"sqlite3_vdbe_exec"
          ~target:(fun m ->
            call_gadget m ~in_func:"sqlite3_mem_harden" ~callee:"mprotect" ())
          ~prep:(fun m ->
            Primitives.poke m (pivot_slot m ~func:"sqlite3_mem_harden" ~var:"prots") 7L)
          ();
    };
    {
      a_id = "rop-mprotect-chrome";
      a_name = "ROP RWX via vfunc_jit_protect gadget";
      a_category = "ROP";
      a_reference = "[12]";
      a_expected = cf_ai_block;
      a_victim = Victims.chrome;
      a_fs_scope = false;
      a_goal = "mprotect";
      a_goal_check = goal_rwx;
      a_install =
        rop ~nth:4 ~from:"vfunc_render"
          ~target:(fun m ->
            call_gadget m ~in_func:"vfunc_jit_protect" ~callee:"mprotect" ())
          ~prep:(fun m ->
            Primitives.poke m (pivot_slot m ~func:"vfunc_jit_protect" ~var:"prot") 7L;
            Primitives.poke m
              (pivot_slot m ~func:"vfunc_jit_protect" ~var:"region")
              (i64_of 0x700400))
          ();
    };
  ]

(* --- 19-27: direct syscall manipulation ----------------------------- *)

(** Corrupt one dispatch-table function pointer to a syscall stub. *)
let handler_hijack ~id ~name ~reference ~victim ~slot ~stub ~goal ~goal_check =
  {
    a_id = id;
    a_name = name;
    a_category = "Direct";
    a_reference = reference;
    a_expected = all_contexts_block;
    a_victim = victim;
    a_fs_scope = false;
    a_goal = goal;
    a_goal_check = goal_check;
    a_install =
      corrupt ~at:"parse_stream"
        ~action:(fun m ->
          let table = Primitives.global m "g_handlers" in
          let elem = 2 (* words per handler_t *) in
          Primitives.poke m
            (Machine.Memory.addr_add table (slot * elem))
            (Primitives.func_addr m stub))
        ();
  }

let direct_attacks =
  [
    {
      a_id = "newton-cscfi";
      a_name = "NEWTON CsCFI: hijack plugin pointer to unused mprotect";
      a_category = "Direct";
      a_reference = "[93]";
      a_expected = all_contexts_block;
      a_victim = Victims.loader_app;
      a_fs_scope = false;
      a_goal = "mprotect";
      a_goal_check = goal_rwx;
      a_install =
        corrupt ~nth:2 ~at:"process_event"
          ~action:(fun m ->
            Primitives.poke m (Primitives.global m "g_plugin")
              (Primitives.func_addr m "mprotect"))
          ();
    };
    {
      a_id = "aocr-nginx-1";
      a_name = "AOCR NGINX Attack 1: type-matched pointer to open";
      a_category = "Direct";
      a_reference = "[81]";
      a_expected = all_contexts_block;
      a_victim = Victims.nginx;
      a_fs_scope = true;
      a_goal = "open";
      a_goal_check = (fun ~args:_ ~path -> path = Some "");
      a_install =
        corrupt ~nth:2 ~at:"ngx_output_chain"
          ~action:(fun m ->
            Primitives.poke m
              (Primitives.global_field m ~global:"g_chain"
                 ~struct_:"ngx_output_chain_ctx_t" ~field:"output_filter")
              (Primitives.func_addr m "open"))
          ();
    };
    handler_hijack ~id:"cve-2016-10190" ~reference:"[75]"
      ~name:"CVE-2016-10190 (ffmpeg http): demuxer pointer to execve"
      ~victim:Victims.ffmpeg_http ~slot:1 ~stub:"execve" ~goal:"execve"
      ~goal_check:goal_any;
    handler_hijack ~id:"cve-2016-10191" ~reference:"[76]"
      ~name:"CVE-2016-10191 (ffmpeg rtmp): codec pointer to mprotect"
      ~victim:Victims.ffmpeg_rtmp ~slot:2 ~stub:"mprotect" ~goal:"mprotect"
      ~goal_check:goal_any;
    handler_hijack ~id:"cve-2015-8617" ~reference:"[74]"
      ~name:"CVE-2015-8617 (php): zend handler to execve" ~victim:Victims.php ~slot:3
      ~stub:"execve" ~goal:"execve" ~goal_check:goal_any;
    handler_hijack ~id:"cve-2012-0809" ~reference:"[70]"
      ~name:"CVE-2012-0809 (sudo): debug handler to execve" ~victim:Victims.sudo
      ~slot:0 ~stub:"execve" ~goal:"execve" ~goal_check:goal_any;
    {
      a_id = "cve-2013-2028";
      a_name = "CVE-2013-2028 (nginx): chunked-encoding pointer to execve";
      a_category = "Direct";
      a_reference = "[71]";
      a_expected = all_contexts_block;
      a_victim = Victims.nginx;
      a_fs_scope = false;
      a_goal = "execve";
      a_goal_check = goal_any;
      a_install =
        corrupt ~nth:2 ~at:"ngx_http_get_indexed_variable"
          ~action:(fun m ->
            let vars = Primitives.global m "g_vars" in
            (* g_vars[2].get_handler := &execve *)
            Primitives.poke m
              (Machine.Memory.addr_add vars (2 * 3))
              (Primitives.func_addr m "execve"))
          ();
    };
    handler_hijack ~id:"cve-2014-8668" ~reference:"[73]"
      ~name:"CVE-2014-8668 (libtiff): codec pointer to mprotect"
      ~victim:Victims.libtiff ~slot:1 ~stub:"mprotect" ~goal:"mprotect"
      ~goal_check:goal_any;
    handler_hijack ~id:"cve-2014-1912" ~reference:"[72]"
      ~name:"CVE-2014-1912 (python): method pointer to execve" ~victim:Victims.python
      ~slot:2 ~stub:"execve" ~goal:"execve" ~goal_check:goal_any;
  ]

(* --- 28-32: indirect syscall manipulation --------------------------- *)

let indirect_attacks =
  [
    {
      a_id = "newton-cpi";
      a_name = "NEWTON CPI: out-of-bounds index into v[index].get_handler";
      a_category = "Indirect";
      a_reference = "[93]";
      a_expected = all_contexts_block;
      a_victim = Victims.nginx;
      a_fs_scope = false;
      a_goal = "mprotect";
      a_goal_check = goal_rwx;
      a_install =
        corrupt ~nth:3 ~at:"ngx_http_get_indexed_variable"
          ~action:(fun m ->
            let vars = Primitives.global m "g_vars" in
            let sc = scratch m in
            (* Choose k in {0,1,2} so (scratch + 8k - vars) is a whole
               number of 24-byte ngx_http_var_t elements. *)
            let k =
              let delta = Int64.to_int (Int64.sub sc vars) / 8 in
              (3 - (delta mod 3)) mod 3
            in
            let base = Machine.Memory.addr_add sc k in
            (* Counterfeit element: get_handler=&mprotect, data=PROT_RWX. *)
            Primitives.poke m base (Primitives.func_addr m "mprotect");
            Primitives.poke m (Machine.Memory.addr_add base 1) 7L;
            let index =
              Int64.to_int (Int64.sub (Machine.Memory.addr_add sc k) vars) / 24
            in
            (* Corrupt the non-pointer index parameter. *)
            match Machine.local_address m ~func:"ngx_http_get_indexed_variable" ~var:"index" with
            | Some slot -> Primitives.poke m slot (i64_of index)
            | None -> invalid_arg "newton-cpi: index slot not found")
          ();
    };
    {
      a_id = "aocr-apache";
      a_name = "AOCR Apache: piped-log pointer to ap_get_exec_line";
      a_category = "Indirect";
      a_reference = "[93]";
      a_expected = cf_ai_block;
      a_victim = Victims.apache;
      a_fs_scope = false;
      a_goal = "execve";
      a_goal_check = goal_shell;
      a_install =
        corrupt ~nth:2 ~at:"ap_handle_request"
          ~action:(fun m ->
            let shell = plant_shell m in
            Primitives.poke m (Primitives.global m "g_exec_cmdline") shell;
            Primitives.poke m
              (Primitives.global_field m ~global:"g_plog" ~struct_:"piped_log_t"
                 ~field:"writer")
              (Primitives.func_addr m "ap_get_exec_line"))
          ();
    };
    {
      a_id = "aocr-nginx-2";
      a_name = "AOCR NGINX Attack 2: master-loop globals drive exec";
      a_category = "Indirect";
      a_reference = "[81]";
      a_expected = ai_only_blocks;
      a_victim = Victims.nginx;
      a_fs_scope = false;
      a_goal = "execve";
      a_goal_check = goal_shell;
      a_install =
        corrupt ~at:"ngx_master_cycle"
          ~action:(fun m ->
            let shell = plant_shell m in
            Primitives.poke m (Primitives.global m "g_upgrade") 1L;
            Primitives.poke m
              (Primitives.global_field m ~global:"g_exec_ctx"
                 ~struct_:"ngx_exec_ctx_t" ~field:"path")
              shell)
          ();
    };
    {
      a_id = "coop-chrome";
      a_name = "COOP: counterfeit object reuses vfunc_jit_protect";
      a_category = "Indirect";
      a_reference = "[34]";
      a_expected = ai_only_blocks;
      a_victim = Victims.chrome;
      a_fs_scope = false;
      a_goal = "mprotect";
      a_goal_check = goal_rwx;
      a_install =
        corrupt ~nth:2 ~at:"render_pass"
          ~action:(fun m ->
            let objs = Primitives.global m "g_objs" in
            let obj1 = Machine.Memory.addr_add objs 3 (* element 1 *) in
            Primitives.poke m obj1 (Primitives.func_addr m "vfunc_jit_protect");
            Primitives.poke m (Machine.Memory.addr_add obj1 1)
              (Machine.peek m (Primitives.global m "g_jit_region"));
            Primitives.poke m (Machine.Memory.addr_add obj1 2) 7L)
          ();
    };
    {
      a_id = "control-jujutsu";
      a_name = "Control Jujutsu: full-function reuse of ngx_execute_proc";
      a_category = "Indirect";
      a_reference = "[38]";
      a_expected = ai_only_blocks;
      a_victim = Victims.nginx;
      a_fs_scope = false;
      a_goal = "execve";
      a_goal_check = goal_shell;
      a_install =
        corrupt ~nth:2 ~at:"ngx_output_chain"
          ~action:(fun m ->
            let shell = plant_shell m in
            Primitives.poke m
              (Primitives.global_field m ~global:"g_chain"
                 ~struct_:"ngx_output_chain_ctx_t" ~field:"output_filter")
              (Primitives.func_addr m "ngx_execute_proc");
            (* The `in` chain pointer aims at the live request buffer:
               turn it into a counterfeit exec context. *)
            match Machine.local_address m ~func:"ngx_http_handle_request" ~var:"buf" with
            | Some buf ->
              Primitives.poke m buf shell;
              Primitives.poke m (Machine.Memory.addr_add buf 1) 0L;
              Primitives.poke m (Machine.Memory.addr_add buf 2) 0L
            | None -> invalid_arg "control-jujutsu: buf not found")
          ();
    };
  ]

let all : Attack.t list =
  rop_user_command_attacks @ rop_root_attacks @ rop_mprotect_attacks @ direct_attacks
  @ indirect_attacks

let count = List.length all
