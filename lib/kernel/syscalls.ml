(* The system-call table: real x86-64 numbers, the paper's Table 1
   classification of sensitive calls, and the §11.2 filesystem extension
   set. *)

type category =
  | Arbitrary_code_execution
  | Memory_permissions
  | Privilege_escalation
  | Networking
  | Filesystem   (** §11.2 extension scope *)
  | Other

let category_name = function
  | Arbitrary_code_execution -> "Arbitrary Code Execution"
  | Memory_permissions -> "Memory Permissions"
  | Privilege_escalation -> "Privilege Escalation"
  | Networking -> "Networking"
  | Filesystem -> "Filesystem"
  | Other -> "Other"

(* (name, number, category).  Numbers follow arch/x86/entry/syscalls. *)
let table =
  [
    (* Table 1: the 20 sensitive system calls. *)
    ("execve", 59, Arbitrary_code_execution);
    ("execveat", 322, Arbitrary_code_execution);
    ("fork", 57, Arbitrary_code_execution);
    ("vfork", 58, Arbitrary_code_execution);
    ("clone", 56, Arbitrary_code_execution);
    ("ptrace", 101, Arbitrary_code_execution);
    ("mprotect", 10, Memory_permissions);
    ("mmap", 9, Memory_permissions);
    ("mremap", 25, Memory_permissions);
    ("remap_file_pages", 216, Memory_permissions);
    ("chmod", 90, Privilege_escalation);
    ("setuid", 105, Privilege_escalation);
    ("setgid", 106, Privilege_escalation);
    ("setreuid", 113, Privilege_escalation);
    ("socket", 41, Networking);
    ("bind", 49, Networking);
    ("connect", 42, Networking);
    ("listen", 50, Networking);
    ("accept", 43, Networking);
    ("accept4", 288, Networking);
    (* §11.2 filesystem-related extension set. *)
    ("open", 2, Filesystem);
    ("openat", 257, Filesystem);
    ("read", 0, Filesystem);
    ("write", 1, Filesystem);
    ("close", 3, Filesystem);
    ("sendto", 44, Filesystem);
    ("recvfrom", 45, Filesystem);
    ("sendfile", 40, Filesystem);
    ("fsync", 74, Filesystem);
    ("lseek", 8, Filesystem);
    ("stat", 4, Filesystem);
    ("fstat", 5, Filesystem);
    (* Common non-sensitive calls used by the workload models. *)
    ("getpid", 39, Other);
    ("gettimeofday", 96, Other);
    ("brk", 12, Other);
    ("nanosleep", 35, Other);
    ("futex", 202, Other);
    ("epoll_wait", 232, Other);
    ("rt_sigaction", 13, Other);
    ("exit", 60, Other);
  ]

let by_name = Hashtbl.create 64

let () = List.iter (fun (name, nr, cat) -> Hashtbl.replace by_name name (nr, cat)) table

let number name =
  match Hashtbl.find_opt by_name name with
  | Some (nr, _) -> nr
  | None -> invalid_arg ("Syscalls.number: unknown syscall " ^ name)

(* Tables indexed by number, built once here and never written after:
   the kernel's dispatch reads them on every syscall, from whichever
   domain runs the machine. *)

let count = 1 + List.fold_left (fun m (_, nr, _) -> max m nr) 0 table

let[@inline] in_range nr = nr >= 0 && nr < count

let names = Array.init count (Printf.sprintf "sys_%d")
let categories = Array.make count Other

let () =
  List.iter
    (fun (name, nr, cat) ->
      names.(nr) <- name;
      categories.(nr) <- cat)
    table

let name nr = if in_range nr then names.(nr) else Printf.sprintf "sys_%d" nr

let category nr = if in_range nr then categories.(nr) else Other

(* Whether each number is in a set of names. *)
let member_table set =
  let t = Array.make count false in
  List.iter (fun name -> t.(number name) <- true) set;
  t

(** The paper's Table 1 set, in table order. *)
let sensitive_names =
  [
    "execve"; "execveat"; "fork"; "vfork"; "clone"; "ptrace";
    "mprotect"; "mmap"; "mremap"; "remap_file_pages";
    "chmod"; "setuid"; "setgid"; "setreuid";
    "socket"; "bind"; "connect"; "listen"; "accept"; "accept4";
  ]

let sensitive_numbers = List.map number sensitive_names
let sensitive = member_table sensitive_names

let is_sensitive nr = in_range nr && sensitive.(nr)

let filesystem_names =
  [
    "open"; "openat"; "read"; "write"; "close"; "sendto"; "recvfrom";
    "sendfile"; "fsync"; "lseek"; "stat"; "fstat";
  ]

let filesystem_numbers = List.map number filesystem_names
let filesystem = member_table filesystem_names

let is_filesystem nr = in_range nr && filesystem.(nr)

(** The C-prototype arity of each syscall wrapper (what a type-based CFI
    sees); stubs still accept the full 6-register kernel ABI. *)
let natural_arity nr =
  match name nr with
  | "execve" | "connect" | "bind" | "read" | "write" | "mprotect" | "open"
  | "lseek" | "accept" | "chmod" | "setreuid" ->
    3
  | "mmap" -> 6
  | "execveat" | "mremap" | "remap_file_pages" -> 5
  | "accept4" | "openat" | "sendfile" -> 4
  | "socket" -> 3
  | "listen" | "stat" | "fstat" | "recvfrom" | "sendto" | "futex" -> 2
  | "setuid" | "setgid" | "close" | "fsync" | "exit" | "brk" | "nanosleep"
  | "ptrace" | "clone" ->
    1
  | "fork" | "vfork" | "getpid" | "gettimeofday" -> 0
  | _ -> 6

(** Declare every table entry as a syscall stub in a SIL program under
    construction.  All stubs take 6 integer arguments (the kernel ABI);
    unused trailing arguments are simply ignored. *)
let declare_stubs (pb : Sil.Builder.program) =
  List.iter
    (fun (name, nr, _) -> Sil.Builder.syscall_stub pb name ~number:nr ~arity:6)
    table
