(** Deploy-time (post-layout) metadata: the compiler-generated context
    metadata with program offsets resolved to concrete code addresses,
    as the monitor loads it at initialisation (§7.1). *)

(** How one argument position is verified. *)
type arg_spec = Spec_const of int64 | Spec_mem

(** Where an untainted [Spec_mem] slot's bound object lives: a frame
    word offset for locals, an absolute address for globals.  Lets the
    monitor fetch the expected value with a single shadow probe instead
    of the binding+shadow pair. *)
type cheap_recipe = Cheap_frame of int | Cheap_global of int64

(** One traced callsite. *)
type cs_entry = {
  e_id : int;
  e_loc : Sil.Loc.t;
  e_addr : int64;
  e_callee : string;
  e_sysno : int option;  (** [Some n] iff a syscall callsite *)
  e_specs : (int * arg_spec) list;
  e_pre : (int * int64) list;
      (** positions pre-resolved to a provably constant value: verified
          against the constant, skipping the shadow probes *)
  e_pre_ctx : (int * (int * int64) list) list;
      (** per position the admissible (caller callsite id, value) pairs;
          a trap whose caller frame matches verifies against the value
          with no probes, other callers fall back to the dynamic path *)
  e_dead : bool;
      (** provably unreachable on benign executions: any trap here is
          denied outright *)
  e_ranks : (int * bool) list;
      (** per-position taint rank ([true] = attacker-reachable) *)
  e_cheap : (int * cheap_recipe) list;
      (** single-probe recipes for ranked-untainted positions *)
}

(** The rendered {!fingerprint}, kept once computed. *)
type fingerprint_cell

type t = {
  calltype : Calltype.t;
  cfg : Cfg_analysis.t;
  cs_by_addr : (int64, cs_entry) Hashtbl.t;
  func_slots : (string, int list) Hashtbl.t;
      (** per function: word offsets of sensitive locals *)
  checked_globals : (string * int64 * int) list;
      (** sensitive global regions: name, address, words *)
  entry_count : int;
      (** total metadata entries (init-cost reporting): traced callsites,
          call instructions, CFG pairs and checked globals *)
  rodata : (string * int64) array;
      (** the string constants [build] interned, each once, in
          interning order, with their rodata addresses *)
  fingerprint : fingerprint_cell;
}

(** Resolve program offsets against a machine's layout, interning the
    string constants in its rodata.  Calling conventions are read from
    the machine's code image ({!Machine.Layout.call_at}). *)
val build :
  calltype:Calltype.t ->
  cfg:Cfg_analysis.t ->
  analysis:Arg_analysis.t ->
  inst:Instrument.t ->
  ?pre_resolved:(int, (int * int64) list) Hashtbl.t ->
  ?pre_resolved_ctx:(int, (int * int * int64) list) Hashtbl.t ->
  ?slot_ranks:(int, (int * bool) list) Hashtbl.t ->
  ?dead_sites:(int, unit) Hashtbl.t ->
  Machine.t ->
  t

(** Deploy already-built metadata on another machine of the same
    program: intern [rodata]'s strings there in [build]'s order, so
    every string constant the entries hold addresses the same string.
    @raise Invalid_argument if a string lands at a different address
    (the machine's rodata was not in the state [build] saw). *)
val load : t -> Machine.t -> unit

(** A stable fingerprint of the deployed metadata (FNV-1a over a
    canonical rendering of callsite entries, the calling convention of
    every call in [layout]'s code image, call types, CFG pair count,
    sensitive slots and globals).  The replay trace header pins the
    bundle a stream was recorded against; two bundles that could judge
    a trap differently fingerprint apart.  Stable across processes and
    compiler versions (no [Hashtbl.hash]).  Rendered once per [t] and
    kept, so [layout] must belong to a machine running the program [t]
    was built for. *)
val fingerprint : t -> Machine.Layout.t -> string
