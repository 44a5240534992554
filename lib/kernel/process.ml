(* A process: a machine image plus kernel-side state (file descriptors,
   seccomp policy, attached tracer, accounting).  Worker processes
   spawned by clone/fork share the parent's policy (§7.1), which the
   simulation models by running all workers within one process image and
   counting the clone calls. *)

type fd_entry =
  | File of { file : Vfs.file; mutable pos : int }
  | Sock of { mutable port : int }
  | Conn of Net.connection

type exec_event = { ev_sysno : int; ev_args : int64 array; ev_path : string option }

type verdict = Continue | Deny of { context : string; detail : string }

type t = {
  machine : Machine.t;
  vfs : Vfs.t;
  net : Net.t;
  tracer : Ptrace.t;
  mutable filter : Seccomp.filter option;
  mutable tracer_hook : (t -> sysno:int -> args:int64 array -> verdict) option;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable next_pid : int;
  mutable uid : int;
  mutable gid : int;
  mutable syscall_counts : int array;
      (** executed syscalls, by number below [Syscalls.count]; empty
          until the first, so a forked child that never runs one keeps
          no table *)
  mutable other_counts : (int * int) list;  (** executed syscalls outside that range *)
  mutable trap_count : int;               (** TRACE stops delivered *)
  mutable io_words_out : int;             (** words sent to clients *)
  mutable io_words_in : int;              (** words read from files/clients *)
  mutable exec_log : exec_event list;     (** sensitive syscalls that EXECUTED *)
  mutable serve_start_cycles : int option;
      (** cycle count at the first accept/accept4: the start of the
          steady-state measurement window (what wrk/DBT2/dkftpbench
          actually measure, excluding server initialisation) *)
  mutable on_syscall_executed :
    (sysno:int -> args:int64 array -> path:string option -> unit) option;
      (** observation hook fired whenever a syscall actually executes
          (i.e. passed every deployed defense); the attack runner uses it
          to detect goal completion *)
  mutable children : t list;
      (** processes spawned by fork/clone; each inherits a copy of the
          parent's seccomp policy and the same monitor (§7.1) *)
}

let create (machine : Machine.t) =
  {
    machine;
    vfs = Vfs.create ();
    net = Net.create ();
    tracer = Ptrace.create machine;
    filter = None;
    tracer_hook = None;
    fds = Hashtbl.create 32;
    next_fd = 3;
    next_pid = 100;
    uid = 0;
    gid = 0;
    syscall_counts = [||];
    other_counts = [];
    trap_count = 0;
    io_words_out = 0;
    io_words_in = 0;
    exec_log = [];
    serve_start_cycles = None;
    on_syscall_executed = None;
    children = [];
  }

(** Spawn a child at fork/clone time: same address-space image, a
    *copy* of the seccomp policy (the kernel duplicates the filter into
    the child) and the same tracer, per §7.1. *)
let spawn_child (parent : t) : t =
  parent.next_pid <- parent.next_pid + 1;
  let child = create parent.machine in
  child.next_pid <- parent.next_pid;
  child.filter <- Option.map Seccomp.copy parent.filter;
  child.tracer_hook <- parent.tracer_hook;
  parent.children <- child :: parent.children;
  child

(** Cycles spent in the serving phase (after the first accept). *)
let serve_cycles (t : t) =
  let total = t.machine.stats.cycles in
  match t.serve_start_cycles with None -> total | Some c -> total - c

let alloc_fd t entry =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd entry;
  fd

let find_fd t fd = Hashtbl.find_opt t.fds fd

let close_fd t fd = Hashtbl.remove t.fds fd

let syscall_count t nr =
  if Syscalls.in_range nr then
    if Array.length t.syscall_counts = 0 then 0 else t.syscall_counts.(nr)
  else Option.value ~default:0 (List.assoc_opt nr t.other_counts)

let count_syscall t nr =
  if Syscalls.in_range nr then begin
    if Array.length t.syscall_counts = 0 then t.syscall_counts <- Array.make Syscalls.count 0;
    t.syscall_counts.(nr) <- t.syscall_counts.(nr) + 1
  end
  else t.other_counts <- (nr, 1 + syscall_count t nr) :: List.remove_assoc nr t.other_counts

let log_exec t ~sysno ~args ~path =
  t.exec_log <- { ev_sysno = sysno; ev_args = args; ev_path = path } :: t.exec_log

(** Sensitive syscalls that reached execution (i.e. passed every
    deployed defense), newest first. *)
let executed_sensitive t = t.exec_log

let executed t name =
  let nr = Syscalls.number name in
  List.filter (fun e -> e.ev_sysno = nr) t.exec_log
