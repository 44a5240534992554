(** System-call dispatch: seccomp evaluation, TRACE stops to the
    attached tracer (the BASTION monitor), then per-syscall semantics
    over the VFS / socket substrates. *)

module Syscalls = Syscalls
module Seccomp = Seccomp
module Vfs = Vfs
module Net = Net
module Ptrace = Ptrace
module Process = Process

(** Execute one syscall's semantics (after filtering/tracing): one
    index into a handler table built from {!Syscalls.table}.  A number
    the table does not list returns 0 without effect. *)
val execute : Process.t -> sysno:int -> args:int64 array -> int64

(** The full dispatch pipeline for one invocation: charge base cost,
    evaluate seccomp (Allow / Kill / Trace-with-verdict), account, then
    {!execute}.
    @raise Machine.Killed on KILL or a tracer denial. *)
val dispatch : Process.t -> Machine.t -> sysno:int -> args:int64 array -> int64

(** Create a process for a machine and install the dispatcher as its
    syscall handler. *)
val boot : Machine.t -> Process.t
