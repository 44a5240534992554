(* Victim programs for the security case studies (Table 6).

   Besides the NGINX model (shared with the performance evaluation),
   the catalog needs the other applications the paper's attacks target:
   an Apache-like server (AOCR), a Chrome-like renderer (COOP), a
   dynamically-linked app that never calls mprotect (NEWTON CsCFI), a
   privileged daemon (root-command ROP), and the applications behind
   the seven CVEs (ffmpeg, php, sudo, libtiff, python), modelled as
   dispatch-table interpreters with the relevant corruptible pointer. *)

module B = Sil.Builder
open Sil.Operand

let i64 = Sil.Types.I64
let ptr = Sil.Types.Ptr Sil.Types.I64

type t = {
  v_name : string;
  v_build : unit -> Sil.Prog.t;
  v_setup : Kernel.Process.t -> unit;
}

let source v = { Workloads.Deployments.id = Victim v.v_name; prog = lazy (v.v_build ()) }

(* ------------------------------------------------------------------ *)
(* NGINX (shared with the performance workloads, small scale)          *)

let nginx_params =
  {
    Workloads.Nginx_model.default with
    connections = 3;
    requests_per_conn = 2;
    init_mmap = 8;
    init_mprotect = 6;
    workers = 2;
    filler = false;
  }

let nginx =
  {
    v_name = "nginx";
    v_build = (fun () -> Workloads.Nginx_model.build nginx_params);
    v_setup = Workloads.Nginx_model.setup nginx_params;
  }

(* SQLite, small scale: victim of a memory-permission ROP. *)
let sqlite_params =
  {
    Workloads.Sqlite_model.default with
    connections = 2;
    txns_per_conn = 4;
    mprotect_every = 2;
    filler = false;
  }

let sqlite =
  {
    v_name = "sqlite";
    v_build = (fun () -> Workloads.Sqlite_model.build sqlite_params);
    v_setup = Workloads.Sqlite_model.setup sqlite_params;
  }

(* ------------------------------------------------------------------ *)
(* Apache-like server (AOCR Apache attack)                             *)

let apache_requests = 4
let apache_port = 8080

let apache_build () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.struct_ pb "piped_log_t" [ ("writer", ptr); ("arg", i64) ];
  B.global pb "g_plog" (Sil.Types.Struct "piped_log_t") Sil.Prog.Zero;
  B.global pb "g_exec_cmdline" ptr Sil.Prog.Zero;
  B.global pb "g_rotate" i64 Sil.Prog.Zero;
  B.global pb "g_listen_fd" i64 Sil.Prog.Zero;
  B.global pb "g_scratch" (Sil.Types.Array (i64, 24)) Sil.Prog.Zero;
  (* The legitimate log writer (address-taken: stored in g_plog). *)
  let fb = B.func pb "ap_log_writer" ~params:[ ("x", i64) ] in
  let y = B.local fb "y" i64 in
  B.binop fb y Sil.Instr.Add (Var (B.param fb 0)) (const 1);
  B.ret fb (Some (Var y));
  B.seal fb;
  (* exec_cmd: the only execve user. *)
  let fb = B.func pb "exec_cmd" ~params:[ ("cmd", ptr) ] in
  B.call fb "execve" [ Var (B.param fb 0); Null; Null ];
  B.ret fb None;
  B.seal fb;
  (* ap_get_exec_line: reads the configured command line and execs it.
     Its address is never legitimately taken. *)
  let fb = B.func pb "ap_get_exec_line" ~params:[ ("unused", i64) ] in
  let cmd = B.local fb "cmd" ptr in
  B.load fb cmd (Sil.Place.Lglobal "g_exec_cmdline");
  B.call fb "exec_cmd" [ Var cmd ];
  B.ret fb (Some (const 0));
  B.seal fb;
  (* Request handling: the corruptible indirect call through g_plog. *)
  let fb = B.func pb "ap_handle_request" ~params:[ ("fd", i64) ] in
  let w = B.local fb "w" ptr in
  let r = B.local fb "r" i64 in
  let plogp = B.local fb "plogp" ptr in
  B.call fb ~dst:r "read" [ Var (B.param fb 0); Null; const 16 ];
  B.addr_of fb plogp (Sil.Place.Lglobal "g_plog");
  B.load fb w (Sil.Place.Lfield (Var plogp, "piped_log_t", "writer"));
  B.call_indirect fb ~dst:r (Var w) [ Var (B.param fb 0) ];
  B.call fb "write" [ Var (B.param fb 0); Null; const 8 ];
  B.call fb "close" [ Var (B.param fb 0) ];
  B.ret fb None;
  B.seal fb;
  (* main *)
  let fb = B.func pb "main" ~params:[] in
  let plogp = B.local fb "plogp" ptr in
  let s = B.local fb "s" i64 in
  let sa = B.local fb "sa" (Sil.Types.Array (i64, 2)) in
  let sap = B.local fb "sap" ptr in
  let cfd = B.local fb "cfd" i64 in
  let got = B.local fb "got" i64 in
  let rotate = B.local fb "rotate" i64 in
  B.addr_of fb plogp (Sil.Place.Lglobal "g_plog");
  B.store fb (Sil.Place.Lfield (Var plogp, "piped_log_t", "writer")) (Func_addr "ap_log_writer");
  B.store fb (Sil.Place.Lglobal "g_exec_cmdline") (Cstr "/usr/sbin/rotatelogs");
  B.call fb ~dst:s "socket" [ const 2; const 1; const 0 ];
  B.store fb (Sil.Place.Lglobal "g_listen_fd") (Var s);
  B.call fb "bind" [ Var s; const apache_port ];
  B.call fb "listen" [ Var s; const 64 ];
  (* Legitimate (rarely-taken) log-rotation path. *)
  B.load fb rotate (Sil.Place.Lglobal "g_rotate");
  B.branch fb (Var rotate) "do_rotate" "serve";
  B.block fb "do_rotate";
  B.call fb "ap_get_exec_line" [ const 0 ];
  B.jump fb "serve";
  B.block fb "serve";
  B.addr_of fb sap (Sil.Place.Lvar sa);
  B.block fb "accept_loop";
  B.call fb ~dst:cfd "accept" [ Var s; Var sap; const 2 ];
  B.binop fb got Sil.Instr.Ge (Var cfd) (const 0);
  B.branch fb (Var got) "handle" "done";
  B.block fb "handle";
  B.call fb "ap_handle_request" [ Var cfd ];
  B.jump fb "accept_loop";
  B.block fb "done";
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let apache =
  {
    v_name = "apache";
    v_build = apache_build;
    v_setup =
      (fun proc ->
        for _ = 1 to apache_requests do
          ignore (Kernel.Net.enqueue proc.net apache_port ~request_words:16 ~payload:"GET /")
        done);
  }

(* ------------------------------------------------------------------ *)
(* Chrome-like renderer (COOP)                                         *)

let chrome_build () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.struct_ pb "gfx_obj_t" [ ("vt", ptr); ("p1", i64); ("p2", i64) ];
  B.global pb "g_objs" (Sil.Types.Array (Sil.Types.Struct "gfx_obj_t", 4)) Sil.Prog.Zero;
  B.global pb "g_jit_region" ptr Sil.Prog.Zero;
  B.global pb "g_scratch" (Sil.Types.Array (i64, 24)) Sil.Prog.Zero;
  (* Virtual functions. *)
  let fb = B.func pb "vfunc_render" ~params:[ ("p1", i64); ("p2", i64) ] in
  let x = B.local fb "x" i64 in
  B.binop fb x Sil.Instr.Mul (Var (B.param fb 0)) (const 7);
  B.binop fb x Sil.Instr.Add (Var x) (Var (B.param fb 1));
  B.ret fb (Some (Var x));
  B.seal fb;
  (* The JIT's W^X transition: a legitimate virtual method whose
     mprotect argument flows from its parameters. *)
  let fb = B.func pb "vfunc_jit_protect" ~params:[ ("region", i64); ("prot", i64) ] in
  B.call fb "mprotect" [ Var (B.param fb 0); const 4096; Var (B.param fb 1) ];
  B.ret fb (Some (const 0));
  B.seal fb;
  (* The renderer's virtual dispatch loop. *)
  let fb = B.func pb "render_pass" ~params:[ ("n", i64) ] in
  let base = B.local fb "base" ptr in
  let objp = B.local fb "objp" ptr in
  let vt = B.local fb "vt" ptr in
  let p1 = B.local fb "p1" i64 in
  let p2 = B.local fb "p2" i64 in
  let slot = B.local fb "slot" i64 in
  let i = B.local fb "i" i64 in
  let c = B.local fb "c" i64 in
  B.addr_of fb base (Sil.Place.Lglobal "g_objs");
  B.set fb i (const 0);
  B.block fb "head";
  B.binop fb c Sil.Instr.Lt (Var i) (Var (B.param fb 0));
  B.branch fb (Var c) "body" "done";
  B.block fb "body";
  B.binop fb slot Sil.Instr.And (Var i) (const 3);
  B.addr_of fb objp (Sil.Place.Lindex (Var base, Var slot, Sil.Types.Struct "gfx_obj_t"));
  B.load fb vt (Sil.Place.Lfield (Var objp, "gfx_obj_t", "vt"));
  B.load fb p1 (Sil.Place.Lfield (Var objp, "gfx_obj_t", "p1"));
  B.load fb p2 (Sil.Place.Lfield (Var objp, "gfx_obj_t", "p2"));
  B.call_indirect fb (Var vt) [ Var p1; Var p2 ];
  B.binop fb i Sil.Instr.Add (Var i) (const 1);
  B.jump fb "head";
  B.block fb "done";
  B.ret fb None;
  B.seal fb;
  (* main: allocate the JIT region, populate the object table (the
     fourth object legitimately performs the W^X transition), render. *)
  let fb = B.func pb "main" ~params:[] in
  let jit = B.local fb "jit" ptr in
  let base = B.local fb "base" ptr in
  let objp = B.local fb "objp" ptr in
  B.call fb ~dst:jit "mmap" [ Null; const 4096; const 3; const 2; const (-1); const 0 ];
  B.store fb (Sil.Place.Lglobal "g_jit_region") (Var jit);
  B.addr_of fb base (Sil.Place.Lglobal "g_objs");
  List.iteri
    (fun idx (vt, p1_is_jit, p2) ->
      B.addr_of fb objp (Sil.Place.Lindex (Var base, const idx, Sil.Types.Struct "gfx_obj_t"));
      B.store fb (Sil.Place.Lfield (Var objp, "gfx_obj_t", "vt")) (Func_addr vt);
      if p1_is_jit then
        B.store fb (Sil.Place.Lfield (Var objp, "gfx_obj_t", "p1")) (Var jit)
      else B.store fb (Sil.Place.Lfield (Var objp, "gfx_obj_t", "p1")) (const (idx * 3));
      B.store fb (Sil.Place.Lfield (Var objp, "gfx_obj_t", "p2")) (const p2))
    [
      ("vfunc_render", false, 2);
      ("vfunc_render", false, 4);
      ("vfunc_render", false, 6);
      ("vfunc_jit_protect", true, 5);  (* PROT_READ|PROT_EXEC: the benign W^X flip *)
    ];
  B.call fb "render_pass" [ const 16 ];
  B.call fb "render_pass" [ const 16 ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let chrome = { v_name = "chrome"; v_build = chrome_build; v_setup = (fun _ -> ()) }

(* ------------------------------------------------------------------ *)
(* Plugin host that never calls mprotect (NEWTON CsCFI victim)         *)

let loader_build () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_plugin" ptr (Sil.Prog.Fptr "plugin_log");
  B.global pb "g_scratch" (Sil.Types.Array (i64, 24)) Sil.Prog.Zero;
  (* The benign plugin hook: same C type as mprotect(void*,size_t,int). *)
  let fb = B.func pb "plugin_log" ~params:[ ("buf", i64); ("len", i64); ("flags", i64) ] in
  let x = B.local fb "x" i64 in
  B.binop fb x Sil.Instr.Add (Var (B.param fb 1)) (Var (B.param fb 2));
  B.ret fb (Some (Var x));
  B.seal fb;
  let fb = B.func pb "process_event" ~params:[ ("ev", i64) ] in
  let h = B.local fb "h" ptr in
  B.load fb h (Sil.Place.Lglobal "g_plugin");
  B.call_indirect fb (Var h) [ Var (B.param fb 0); const 4096; const 7 ];
  B.ret fb None;
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  let fd = B.local fb "fd" i64 in
  B.call fb ~dst:fd "open" [ Cstr "/etc/app.conf"; const 0 ];
  B.call fb "read" [ Var fd; Null; const 8 ];
  B.call fb "close" [ Var fd ];
  Workloads.Appkit.counted_loop fb ~tag:"events" ~count:6 (fun fb ->
      B.call fb "process_event" [ const 1 ]);
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let loader_app =
  {
    v_name = "loader_app";
    v_build = loader_build;
    v_setup = (fun proc -> Kernel.Vfs.add_file proc.vfs "/etc/app.conf" ~size_words:8);
  }

(* ------------------------------------------------------------------ *)
(* Privileged daemon (root-command ROP victim)                         *)

let priv_daemon_build () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.global pb "g_cfg_uid" i64 (Sil.Prog.Word 1000L);
  B.global pb "g_helper_path" ptr Sil.Prog.Zero;
  B.global pb "g_scratch" (Sil.Types.Array (i64, 24)) Sil.Prog.Zero;
  (* drop_privileges: setuid with a configuration-derived uid. *)
  let fb = B.func pb "drop_privileges" ~params:[] in
  let uid = B.local fb "uid" i64 in
  B.load fb uid (Sil.Place.Lglobal "g_cfg_uid");
  B.call fb "setuid" [ Var uid ];
  B.call fb "setgid" [ Var uid ];
  B.ret fb None;
  B.seal fb;
  (* run_helper: forks and execs the configured helper binary. *)
  let fb = B.func pb "run_helper" ~params:[] in
  let path = B.local fb "path" ptr in
  B.call fb "fork" [];
  B.load fb path (Sil.Place.Lglobal "g_helper_path");
  B.call fb "execve" [ Var path; Null; Null ];
  B.ret fb None;
  B.seal fb;
  (* checksum: a pure worker containing the stack-overflow bug. *)
  let fb = B.func pb "checksum" ~params:[ ("x", i64) ] in
  let acc = B.local fb "acc" i64 in
  B.set fb acc (Var (B.param fb 0));
  Workloads.Appkit.compute_loop fb ~tag:"mix" ~iters:8;
  B.binop fb acc Sil.Instr.Xor (Var acc) (const 0xABCD);
  B.ret fb (Some (Var acc));
  B.seal fb;
  let fb = B.func pb "main" ~params:[] in
  let need_helper = B.local fb "need_helper" i64 in
  B.store fb (Sil.Place.Lglobal "g_helper_path") (Cstr "/usr/libexec/helper");
  B.call fb "drop_privileges" [];
  Workloads.Appkit.counted_loop fb ~tag:"work" ~count:5 (fun fb ->
      B.call fb "checksum" [ const 41 ]);
  (* Rare maintenance path keeps run_helper reachable. *)
  B.set fb need_helper (const 0);
  B.branch fb (Var need_helper) "helper" "done";
  B.block fb "helper";
  B.call fb "run_helper" [];
  B.jump fb "done";
  B.block fb "done";
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let priv_daemon =
  { v_name = "priv_daemon"; v_build = priv_daemon_build; v_setup = (fun _ -> ()) }

(* ------------------------------------------------------------------ *)
(* Dispatch-table applications behind the CVE exploits                 *)

type dispatch_shape = {
  d_name : string;
  d_input : string;            (** input file the app parses *)
  d_legit_exec : bool;         (** app legitimately execs (sudo) *)
  d_legit_fork : bool;         (** app legitimately forks (python) *)
  d_handlers : int;            (** dispatch table size *)
}

(** A parser/interpreter with a handler dispatch table — the common
    skeleton of the ffmpeg/php/libtiff/python/sudo victims.  Each
    instance differs in its table size, input and legitimate sensitive
    syscall usage; the corruptible structure is the handler table. *)
let dispatch_build (d : dispatch_shape) () =
  let pb = B.program () in
  Kernel.Syscalls.declare_stubs pb;
  B.struct_ pb "handler_t" [ ("fn", ptr); ("priv", i64) ];
  B.global pb "g_handlers"
    (Sil.Types.Array (Sil.Types.Struct "handler_t", d.d_handlers))
    Sil.Prog.Zero;
  B.global pb "g_exec_path" ptr Sil.Prog.Zero;
  B.global pb "g_scratch" (Sil.Types.Array (i64, 24)) Sil.Prog.Zero;
  (* Benign handlers: two distinct ones so the table is heterogeneous. *)
  List.iter
    (fun name ->
      let fb = B.func pb name ~params:[ ("data", i64); ("len", i64); ("opt", i64) ] in
      let x = B.local fb "x" i64 in
      B.binop fb x Sil.Instr.Add (Var (B.param fb 0)) (Var (B.param fb 1));
      B.binop fb x Sil.Instr.Shl (Var x) (const 1);
      B.ret fb (Some (Var x));
      B.seal fb)
    [ "handle_chunk"; "handle_meta" ];
  (* libc is linked into every real binary: system() exists (and gives
     execve a direct callsite) even in applications that never call it —
     which is why Table 6's ROP rows show the Call-Type context bypassed
     everywhere. *)
  let fb = B.func pb "libc_system" ~params:[ ("cmd", ptr) ] in
  B.call fb "fork" [];
  B.call fb "execve" [ Var (B.param fb 0); Null; Null ];
  B.ret fb (Some (const 0));
  B.seal fb;
  (* Legitimate sensitive usage, when the real application has it. *)
  if d.d_legit_exec then begin
    let fb = B.func pb "spawn_command" ~params:[] in
    let path = B.local fb "path" ptr in
    B.load fb path (Sil.Place.Lglobal "g_exec_path");
    if d.d_legit_fork then B.call fb "fork" [];
    B.call fb "setuid" [ const 0 ];
    B.call fb "execve" [ Var path; Null; Null ];
    B.ret fb None;
    B.seal fb
  end
  else if d.d_legit_fork then begin
    let fb = B.func pb "spawn_worker" ~params:[] in
    B.call fb "fork" [];
    B.ret fb None;
    B.seal fb
  end;
  (* The parse loop with the indirect dispatch. *)
  let fb = B.func pb "parse_stream" ~params:[ ("n", i64) ] in
  let base = B.local fb "base" ptr in
  let hp = B.local fb "hp" ptr in
  let fn = B.local fb "fn" ptr in
  let priv = B.local fb "priv" i64 in
  let slot = B.local fb "slot" i64 in
  let i = B.local fb "i" i64 in
  let c = B.local fb "c" i64 in
  B.addr_of fb base (Sil.Place.Lglobal "g_handlers");
  B.set fb i (const 0);
  B.block fb "head";
  B.binop fb c Sil.Instr.Lt (Var i) (Var (B.param fb 0));
  B.branch fb (Var c) "body" "done";
  B.block fb "body";
  B.binop fb slot Sil.Instr.And (Var i) (const (d.d_handlers - 1));
  B.addr_of fb hp (Sil.Place.Lindex (Var base, Var slot, Sil.Types.Struct "handler_t"));
  B.load fb fn (Sil.Place.Lfield (Var hp, "handler_t", "fn"));
  B.load fb priv (Sil.Place.Lfield (Var hp, "handler_t", "priv"));
  B.call_indirect fb (Var fn) [ Var priv; const 64; const 0 ];
  B.binop fb i Sil.Instr.Add (Var i) (const 1);
  B.jump fb "head";
  B.block fb "done";
  B.ret fb None;
  B.seal fb;
  (* main: open the input, fill the table, parse. *)
  let fb = B.func pb "main" ~params:[] in
  let fd = B.local fb "fd" i64 in
  let base = B.local fb "base" ptr in
  let hp = B.local fb "hp" ptr in
  let flag = B.local fb "flag" i64 in
  B.store fb (Sil.Place.Lglobal "g_exec_path") (Cstr "/usr/bin/true");
  B.call fb ~dst:fd "open" [ Cstr d.d_input; const 0 ];
  B.call fb "read" [ Var fd; Null; const 32 ];
  B.addr_of fb base (Sil.Place.Lglobal "g_handlers");
  for idx = 0 to d.d_handlers - 1 do
    B.addr_of fb hp (Sil.Place.Lindex (Var base, const idx, Sil.Types.Struct "handler_t"));
    B.store fb
      (Sil.Place.Lfield (Var hp, "handler_t", "fn"))
      (Func_addr (if idx mod 2 = 0 then "handle_chunk" else "handle_meta"));
    B.store fb (Sil.Place.Lfield (Var hp, "handler_t", "priv")) (const (idx * 10))
  done;
  (* Rarely-taken legitimate paths keep the sensitive users reachable. *)
  B.set fb flag (const 0);
  (if d.d_legit_exec then begin
    B.branch fb (Var flag) "spawn" "parse";
    B.block fb "spawn";
    B.call fb "spawn_command" [];
    B.jump fb "parse";
    B.block fb "parse"
  end
  else if d.d_legit_fork then begin
    B.branch fb (Var flag) "spawn" "parse";
    B.block fb "spawn";
    B.call fb "spawn_worker" [];
    B.jump fb "parse";
    B.block fb "parse"
  end);
  B.call fb "parse_stream" [ const 12 ];
  B.call fb "close" [ Var fd ];
  B.halt fb;
  B.seal fb;
  B.build pb ~entry:"main"

let dispatch_victim (d : dispatch_shape) =
  {
    v_name = d.d_name;
    v_build = dispatch_build d;
    v_setup = (fun proc -> Kernel.Vfs.add_file proc.vfs d.d_input ~size_words:64);
  }

let ffmpeg_http =
  dispatch_victim
    { d_name = "ffmpeg-http"; d_input = "/tmp/in.avi"; d_legit_exec = false;
      d_legit_fork = false; d_handlers = 4 }

let ffmpeg_rtmp =
  dispatch_victim
    { d_name = "ffmpeg-rtmp"; d_input = "/tmp/in.flv"; d_legit_exec = false;
      d_legit_fork = false; d_handlers = 8 }

let php =
  dispatch_victim
    { d_name = "php"; d_input = "/var/www/app.php"; d_legit_exec = false;
      d_legit_fork = true; d_handlers = 8 }

let sudo =
  dispatch_victim
    { d_name = "sudo"; d_input = "/etc/sudoers"; d_legit_exec = true;
      d_legit_fork = true; d_handlers = 4 }

let libtiff =
  dispatch_victim
    { d_name = "libtiff"; d_input = "/tmp/in.tif"; d_legit_exec = false;
      d_legit_fork = false; d_handlers = 4 }

let python =
  dispatch_victim
    { d_name = "python"; d_input = "/usr/lib/app.py"; d_legit_exec = false;
      d_legit_fork = true; d_handlers = 8 }
