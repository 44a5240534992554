(** The BASTION runtime library (Table 2), installed as the machine's
    intrinsic handler: ctx_write_mem refreshes shadow copies after
    legitimate stores, ctx_bind_mem binds argument positions to
    addresses, ctx_bind_const exists for its (inlined) cost only. *)

type t = {
  shadow : Shadow_memory.t;
  mutable recorder : Obs.Recorder.t option;
  mutable write_mem_calls : int;
  mutable bind_mem_calls : int;
  mutable bind_const_calls : int;
}

val create : unit -> t

(** Wire a flight recorder to the runtime library: ctx_* intrinsics are
    counted (and traced as instant events when tracing is on) and the
    call counters are mirrored into the registry as probes. *)
val attach_recorder : t -> Obs.Recorder.t -> unit

(** Execute one intrinsic call (exposed for testing). *)
val handle : t -> Machine.t -> name:string -> args:Machine.Args.t -> int64

(** Wire the runtime into a machine's intrinsic dispatch. *)
val install : t -> Machine.t -> unit

(** Shadow-table probe statistics, both sides: (mean lookup probes,
    mean insert probes, inserts performed). *)
val shadow_probe_stats : t -> float * float * int

(** Seed the shadow with the post-initialisation contents of every
    global: loader-visible static state is legitimate by definition. *)
val seed_globals : t -> Machine.t -> unit
