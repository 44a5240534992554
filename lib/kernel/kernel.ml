(* System-call dispatch: seccomp evaluation, TRACE stops to the attached
   tracer (the BASTION monitor), then the per-syscall semantics over the
   VFS / socket substrates.  Installed as the machine's syscall handler.

   Like a seccomp-BPF filter and the kernel's own syscall table, it
   decides on the syscall number: the handler, the sensitive and path
   flags, the seccomp rule and the count are each one array index, so a
   call the filter allows allocates nothing on its way through. *)

module Syscalls = Syscalls
module Seccomp = Seccomp
module Vfs = Vfs
module Net = Net
module Ptrace = Ptrace
module Process = Process

let charge (p : Process.t) n = Machine.charge p.machine n

let cost (p : Process.t) = p.machine.config.cost

(* ------------------------------------------------------------------ *)
(* Per-syscall semantics                                               *)

(* Argument [i], or 0 past the last one passed: every stub takes the
   full six-register kernel ABI.  The handlers read the calling frame's
   argument file in place. *)
let[@inline] arg args i = Machine.Args.get args i

let[@inline] int_arg args i = Machine.Args.get_int args i

(* The path the first argument points to, unless dispatch already read
   it. *)
let path_arg (p : Process.t) args = function
  | Some path -> path
  | None -> Machine.read_string p.machine (arg args 0)

(* Linux moves at most MAX_RW_COUNT (0x7ffff000 bytes) per read, write
   or sendfile; the cap also keeps the I/O charge from overflowing. *)
let max_rw_words = 0x7fff_f000 / 8

let[@inline] rw_count args i = min max_rw_words (max 0 (int_arg args i))

let sys_open (p : Process.t) args path =
  match Vfs.lookup p.vfs (path_arg p args path) with
  | Some file -> Int64.of_int (Process.alloc_fd p (File { file; pos = 0 }))
  | None -> -2L

let sys_read (p : Process.t) args _ =
  let count = rw_count args 2 in
  match Process.find_fd p (int_arg args 0) with
  | Some (File f) ->
    let n = max 0 (min count (f.file.size_words - f.pos)) in
    f.pos <- f.pos + n;
    p.io_words_in <- p.io_words_in + n;
    charge p ((cost p).io_per_word * n);
    Int64.of_int n
  | Some (Conn c) ->
    let n = max 0 (min count c.request_words) in
    p.io_words_in <- p.io_words_in + n;
    charge p ((cost p).io_per_word * n);
    Int64.of_int n
  | Some (Sock _) | None -> -1L

let sys_write (p : Process.t) args _ =
  let count = rw_count args 2 in
  match Process.find_fd p (int_arg args 0) with
  | Some (Conn _) ->
    p.io_words_out <- p.io_words_out + count;
    charge p ((cost p).io_per_word * count);
    Int64.of_int count
  | Some (File _) ->
    charge p ((cost p).io_per_word * count);
    Int64.of_int count
  | Some (Sock _) | None -> -1L

let sys_sendfile (p : Process.t) args _ =
  (* sendfile(out_fd, in_fd, offset, count) *)
  let count = rw_count args 3 in
  (match Process.find_fd p (int_arg args 1) with
  | Some (File f) -> f.pos <- min f.file.size_words (f.pos + count)
  | Some (Sock _) | Some (Conn _) | None -> ());
  p.io_words_out <- p.io_words_out + count;
  charge p ((cost p).io_per_word * count);
  Int64.of_int count

let sys_close (p : Process.t) args _ =
  Process.close_fd p (int_arg args 0);
  0L

let sys_fsync (p : Process.t) _ _ =
  charge p (2 * (cost p).syscall_base);
  0L

let sys_lseek (p : Process.t) args _ =
  match Process.find_fd p (int_arg args 0) with
  | Some (File f) ->
    let off = arg args 1 in
    (* A negative SEEK_SET offset is -EINVAL and leaves the offset. *)
    if Int64.compare off 0L < 0 then -22L
    else begin
      f.pos <- Int64.to_int off;
      off
    end
  | Some (Sock _) | Some (Conn _) | None -> -1L

let sys_socket (p : Process.t) _ _ = Int64.of_int (Process.alloc_fd p (Sock { port = 0 }))

let sys_bind (p : Process.t) args _ =
  match Process.find_fd p (int_arg args 0) with
  | Some (Sock s) ->
    s.port <- int_arg args 1;
    0L
  | Some (File _) | Some (Conn _) | None -> -1L

let sys_listen (p : Process.t) args _ =
  match Process.find_fd p (int_arg args 0) with
  | Some (Sock s) ->
    Net.listen p.net s.port;
    0L
  | Some (File _) | Some (Conn _) | None -> -1L

let sys_accept (p : Process.t) args _ =
  if p.serve_start_cycles = None then
    p.serve_start_cycles <- Some p.machine.stats.cycles;
  match Process.find_fd p (int_arg args 0) with
  | Some (Sock s) -> (
    match Net.accept p.net s.port with
    | Some conn -> Int64.of_int (Process.alloc_fd p (Conn conn))
    | None -> -1L)
  | Some (File _) | Some (Conn _) | None -> -1L

let sys_mmap (p : Process.t) args _ = Machine.alloc_heap p.machine (max 1 (int_arg args 1))

let sys_chmod (p : Process.t) args path = Vfs.chmod p.vfs (path_arg p args path) (int_arg args 1)

let sys_setuid (p : Process.t) args _ =
  p.uid <- int_arg args 0;
  0L

let sys_setgid (p : Process.t) args _ =
  p.gid <- int_arg args 0;
  0L

let sys_setreuid (p : Process.t) args _ =
  p.uid <- int_arg args 1;
  0L

let sys_fork (p : Process.t) _ _ =
  (* The child inherits a copy of the seccomp policy and stays under
     the same monitor (§7.1); workers are not scheduled separately —
     the parent image serves all connections. *)
  let child = Process.spawn_child p in
  Int64.of_int child.next_pid

let sys_exit (_ : Process.t) args _ = raise (Machine.Program_exit (arg args 0))

(* stat, fstat, connect, mprotect, mremap, remap_file_pages, execve,
   execveat, ptrace, the other calls of the table and unknown numbers
   succeed without effect. *)
let sys_none (_ : Process.t) _ _ = 0L

let handler_of_name = function
  | "open" | "openat" -> sys_open
  | "read" | "recvfrom" -> sys_read
  | "write" | "sendto" -> sys_write
  | "sendfile" -> sys_sendfile
  | "close" -> sys_close
  | "fsync" -> sys_fsync
  | "lseek" -> sys_lseek
  | "socket" -> sys_socket
  | "bind" -> sys_bind
  | "listen" -> sys_listen
  | "accept" | "accept4" -> sys_accept
  | "mmap" -> sys_mmap
  | "chmod" -> sys_chmod
  | "setuid" -> sys_setuid
  | "setgid" -> sys_setgid
  | "setreuid" -> sys_setreuid
  | "fork" | "vfork" | "clone" -> sys_fork
  | "exit" -> sys_exit
  | _ -> sys_none

(* The calls whose first argument is a path that dispatch logs and
   shows to [on_syscall_executed]. *)
let path_names = [ "execve"; "execveat"; "chmod"; "open"; "openat"; "stat" ]

(* Indexed by number, built once here and never written after: the
   machines of the fleet and of the sharded monitor dispatch through
   them from several domains. *)
let handlers = Array.make Syscalls.count sys_none
let takes_path = Array.make Syscalls.count false

let () =
  List.iter (fun (name, nr, _) -> handlers.(nr) <- handler_of_name name) Syscalls.table;
  List.iter (fun name -> takes_path.(Syscalls.number name) <- true) path_names

(* [path] is the first argument's string if dispatch read it. *)
let[@inline] handle p ~sysno ~args ~path =
  if Syscalls.in_range sysno then handlers.(sysno) p args path else 0L

let execute (p : Process.t) ~sysno ~(args : Machine.Args.t) : int64 =
  handle p ~sysno ~args ~path:None

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let dispatch (p : Process.t) (_m : Machine.t) ~sysno ~(args : Machine.Args.t) : int64 =
  charge p (cost p).syscall_base;
  (match p.filter with
  | None -> ()
  | Some filter -> (
    charge p (cost p).seccomp_eval;
    match Seccomp.evaluate filter sysno with
    | Seccomp.Allow -> ()
    | Seccomp.Kill -> raise (Machine.Killed (Machine.Seccomp_kill { sysno }))
    | Seccomp.Trace ->
      (* Syscall-flow pre-filter (the tiered fast path): an automaton
         step over the seccomp-visible state — number, callsite
         address, register arguments.  A resolved call never traps: no
         context switches, no ptrace, no unwind.  A standalone-mode
         flow violation kills at seccomp stage, like any filter KILL. *)
      let rip = Int64.of_int p.machine.trap_rip in
      (* Every TRACE-rule syscall goes through the automaton: the spec
         is extracted from exactly the event set that traps (including
         the filesystem syscalls under Bastion+fs), so gating on the
         sensitive set would both skip resolvable traps and desync the
         edge relation across the skipped nodes. *)
      let prefilter = Seccomp.flow filter in
      let resolved =
        match prefilter with
        | None -> false
        | Some fa -> (
          charge p (cost p).prefilter_eval;
          match Seccomp.flow_eval fa ~sysno ~rip ~args with
          | Seccomp.Flow_resolve -> true
          | Seccomp.Flow_kill ->
            raise (Machine.Killed (Machine.Seccomp_kill { sysno }))
          | Seccomp.Flow_fallthrough -> false)
      in
      if not resolved then begin
        p.trap_count <- p.trap_count + 1;
        charge p (2 * (cost p).trap_context_switch);
        (match p.tracer_hook with
        | None -> ()
        | Some hook -> (
          p.tracer.cur_sysno <- sysno;
          match hook p ~sysno ~args with
          | Process.Continue -> ()
          | Process.Deny { context; detail } ->
            raise (Machine.Killed (Machine.Monitor_kill { context; detail }))));
        (* The full path allowed the trap: re-synchronise the automaton
           so the next edge check starts from this callsite. *)
        match prefilter with
        | Some fa -> Seccomp.flow_note_allowed fa ~rip
        | None -> ()
      end));
  Process.count_syscall p sysno;
  let sensitive = Syscalls.is_sensitive sysno in
  (* Read the path only for the log or the observer. *)
  let path =
    if
      Syscalls.in_range sysno && takes_path.(sysno)
      && Machine.Args.length args > 0
      && (sensitive || Option.is_some p.on_syscall_executed)
    then Some (Machine.read_string p.machine (arg args 0))
    else None
  in
  if sensitive then Process.log_exec p ~sysno ~args ~path;
  (match p.on_syscall_executed with
  | Some hook -> hook ~sysno ~args ~path
  | None -> ());
  handle p ~sysno ~args ~path

(** Wire a process's kernel into its machine.  Returns the process. *)
let boot (machine : Machine.t) : Process.t =
  let p = Process.create machine in
  machine.on_syscall <- Some (fun m ~sysno ~args -> dispatch p m ~sysno ~args);
  p
