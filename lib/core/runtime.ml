(* The BASTION runtime library (Table 2), installed as the machine's
   intrinsic handler.  The inlined ctx_* calls keep the shadow memory up
   to date from inside the protected application:

   - ctx_write_mem(p, size): refresh the shadow copies of [size] words
     at [p] from their just-stored (legitimate) values;
   - ctx_bind_mem(id, pos, p): bind address [p] to argument [pos] of
     instrumented callsite [id];
   - ctx_bind_const(id, pos, c): constants are static metadata — the
     call exists only for its (small, inlined) runtime cost. *)

type t = {
  shadow : Shadow_memory.t;
  mutable recorder : Obs.Recorder.t option;
  mutable write_mem_calls : int;
  mutable bind_mem_calls : int;
  mutable bind_const_calls : int;
}

let create () =
  { shadow = Shadow_memory.create (); recorder = None; write_mem_calls = 0;
    bind_mem_calls = 0; bind_const_calls = 0 }

(** Wire a flight recorder to the runtime library: each ctx_* intrinsic
    is counted (and, when tracing, recorded as an instant event on the
    trace timeline), and the runtime's call counters are mirrored into
    the registry as sampled probes. *)
let attach_recorder (t : t) (r : Obs.Recorder.t) =
  t.recorder <- Some r;
  let reg = Obs.Recorder.metrics r in
  let p name f = Obs.Metrics.register_probe reg name (fun () -> float_of_int (f ())) in
  p "runtime.write_mem_calls" (fun () -> t.write_mem_calls);
  p "runtime.bind_mem_calls" (fun () -> t.bind_mem_calls);
  p "runtime.bind_const_calls" (fun () -> t.bind_const_calls)

let handle (t : t) (m : Machine.t) ~name ~(args : Machine.Args.t) : int64 =
  (match t.recorder with
  | Some r -> Obs.Recorder.record_instant r ~name ~at:m.stats.cycles
  | None -> ());
  (match name with
  | "ctx_write_mem" ->
    t.write_mem_calls <- t.write_mem_calls + 1;
    let addr = Machine.Args.get args 0 and size = Machine.Args.get_int args 1 in
    for i = 0 to max 0 (size - 1) do
      let a = Machine.Memory.addr_add addr i in
      Shadow_memory.set_shadow t.shadow ~addr:a ~value:(Machine.peek m a)
    done
  | "ctx_bind_mem" ->
    t.bind_mem_calls <- t.bind_mem_calls + 1;
    Shadow_memory.set_binding t.shadow ~id:(Machine.Args.get_int args 0)
      ~pos:(Machine.Args.get_int args 1) ~addr:(Machine.Args.get args 2)
  | "ctx_bind_const" -> t.bind_const_calls <- t.bind_const_calls + 1
  | _ -> ());
  0L

let install (t : t) (m : Machine.t) =
  m.on_intrinsic <- Some (fun m ~name ~args -> handle t m ~name ~args)

(** Shadow-table probe statistics of this runtime's shadow, both sides:
    (mean lookup probes, mean insert probes, inserts performed).  The
    write side is driven by the inlined ctx_* calls above, so it is a
    runtime statistic, not a monitor one. *)
let shadow_probe_stats (t : t) =
  ( Shadow_memory.mean_probe_length t.shadow,
    Shadow_memory.mean_insert_probe_length t.shadow,
    Shadow_memory.insert_count t.shadow )

(** Seed the shadow with the post-initialisation contents of every
    global: the loader-visible static state is legitimate by definition
    (the paper's compiler records static values in metadata). *)
let seed_globals (t : t) (m : Machine.t) =
  List.iter
    (fun (g : Sil.Prog.global) ->
      let addr = Machine.Layout.global_addr m.layout g.gname in
      let words = Machine.Layout.global_words m.layout g.gname in
      for i = 0 to words - 1 do
        let a = Machine.Memory.addr_add addr i in
        Shadow_memory.set_shadow t.shadow ~addr:a ~value:(Machine.peek m a)
      done)
    m.prog.globals
