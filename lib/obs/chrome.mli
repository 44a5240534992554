(** The Chrome-trace sink: renders a recorder's flight into the Trace
    Event Format loadable in Perfetto / chrome://tracing.  Traps become
    B/E duration pairs with nested CT/CF/AI phase spans, intrinsics
    become instant events, and the registry snapshot is embedded under
    a top-level ["metrics"] key.  Timestamps are modelled machine
    cycles on the trace's microsecond axis. *)

val schema : string

(** The full trace document for one recorder. *)
val document : Recorder.t -> Report.Json.t

(** [write r path] emits {!document} to [path]. *)
val write : Recorder.t -> string -> unit

(** [write_pool rs path] emits one merged trace document for a sharded
    run to [path]: per-shard recorders' items interleaved on the shared
    modelled clock, one Perfetto lane (pid) per shard, over the shards'
    merged registry. *)
val write_pool : Recorder.t list -> string -> unit

(** Aggregates recovered from a parsed trace document. *)
type summary = {
  sum_traps : int;
  sum_allowed : int;
  sum_denied : int;
  sum_instants : int;
  sum_by_syscall : (string * (int * int * int)) list;
      (** name -> (traps, denied, total cycles), busiest first *)
  sum_by_phase : (string * (int * int)) list;
      (** phase -> (runs, total cycles), CT/CF/AI order *)
  sum_counters : (string * float) list;  (** embedded registry counters *)
}

val summarize : Report.Json.t -> summary

(** Pretty-print a summary (the [trace-summary] subcommand). *)
val render_summary : summary -> string
