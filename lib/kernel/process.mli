(** A process: a machine image plus kernel-side state — file
    descriptors, seccomp policy, attached tracer, accounting.  Worker
    processes spawned by clone/fork share the parent's policy (§7.1);
    the simulation runs all workers in one image and counts the clones. *)

type fd_entry =
  | File of { file : Vfs.file; mutable pos : int }
  | Sock of { mutable port : int }
  | Conn of Net.connection

(** A sensitive syscall that actually executed. *)
type exec_event = { ev_sysno : int; ev_args : int64 array; ev_path : string option }

(** A tracer's decision at a TRACE stop. *)
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
  mutable exec_log : exec_event list;     (** sensitive syscalls that executed *)
  mutable serve_start_cycles : int option;
      (** cycle count at the first accept: start of the steady-state
          window the load generators measure *)
  mutable on_syscall_executed :
    (sysno:int -> args:int64 array -> path:string option -> unit) option;
      (** observation hook fired when a syscall actually executes *)
  mutable children : t list;
      (** processes spawned by fork/clone (policy inheritance, §7.1) *)
}

val create : Machine.t -> t

(** Spawn a fork/clone child: a copy of the parent's seccomp policy and
    the same tracer hook (§7.1). *)
val spawn_child : t -> t

val alloc_fd : t -> fd_entry -> int
val find_fd : t -> int -> fd_entry option
val close_fd : t -> int -> unit

val count_syscall : t -> int -> unit
val syscall_count : t -> int -> int

val log_exec : t -> sysno:int -> args:int64 array -> path:string option -> unit

(** Sensitive syscalls that reached execution, newest first. *)
val executed_sensitive : t -> exec_event list

(** Executed events for one syscall by name. *)
val executed : t -> string -> exec_event list

(** Cycles spent in the serving phase (total before the first accept). *)
val serve_cycles : t -> int
