(* Deploy-time (post-layout) metadata: the paper's compiler-generated
   context metadata with program offsets resolved to concrete addresses,
   as loaded by the monitor at initialisation (§7.1). *)

type arg_spec = Spec_const of int64 | Spec_mem

type cheap_recipe = Cheap_frame of int | Cheap_global of int64

type cs_entry = {
  e_id : int;
  e_loc : Sil.Loc.t;
  e_addr : int64;
  e_callee : string;
  e_sysno : int option;
  e_specs : (int * arg_spec) list;
  e_pre : (int * int64) list;
      (** positions pre-resolved to a provably constant value: the
          monitor verifies these against the constant, skipping the
          shadow probes *)
  e_pre_ctx : (int * (int * int64) list) list;
      (** positions pre-resolved per calling context: for each position
          the admissible (caller callsite id, value) pairs; a trap whose
          caller frame matches one of the ids verifies against that
          value with no probes, any other caller falls back to the
          dynamic path *)
  e_dead : bool;
      (** the site is provably unreachable on benign executions: the
          monitor denies any trap here outright *)
  e_ranks : (int * bool) list;
      (** per-position taint rank ([true] = attacker-reachable);
          untainted positions may verify through the cheap recipe *)
  e_cheap : (int * cheap_recipe) list;
      (** for untainted [Spec_mem] positions: where the bound object
          lives, so the expected value is a single shadow probe away
          (frame word offset for locals, absolute address for
          globals) *)
}

(* Calling conventions come from the code image, which decodes every
   call instruction ([Machine.Layout.call_at], [iter_calls]). *)

type fingerprint_cell = { lock : Mutex.t; mutable value : string option }

type t = {
  calltype : Calltype.t;
  cfg : Cfg_analysis.t;
  cs_by_addr : (int64, cs_entry) Hashtbl.t;
  func_slots : (string, int list) Hashtbl.t;  (** sensitive local offsets (words) *)
  checked_globals : (string * int64 * int) list;  (** name, address, words *)
  entry_count : int;  (** total metadata entries, for init-cost reporting *)
  rodata : (string * int64) array;
      (** string constants, in the order [build] interned them, with
          their rodata addresses *)
  fingerprint : fingerprint_cell;
}

(* [interned] collects each string constant's first binding, newest
   first. *)
let resolve_spec (m : Machine.t) interned (binding : Arg_analysis.binding) : arg_spec =
  match binding with
  | Bind_const c -> Spec_const c
  | Bind_cstr s ->
    let addr = Machine.Layout.intern_string m.layout m.mem s in
    if not (List.mem_assoc s !interned) then interned := (s, addr) :: !interned;
    Spec_const addr
  | Bind_faddr f -> Spec_const (Machine.Layout.func_entry m.layout f)
  | Bind_var _ | Bind_global _ -> Spec_mem

(* Every call instruction of the code image, in address order, with its
   address. *)
let iter_calls (layout : Machine.Layout.t) f =
  Array.iter
    (fun (blk : Machine.Layout.block) ->
      Array.iteri
        (fun i (ins : Machine.Layout.instr) ->
          match ins with
          | Call c -> f (Int64.add blk.base (Int64.of_int (8 * i))) c
          | Assign _ | Store _ -> ())
        blk.instrs)
    (Machine.Layout.image layout).blocks

let build ~(calltype : Calltype.t) ~(cfg : Cfg_analysis.t)
    ~(analysis : Arg_analysis.t) ~(inst : Instrument.t)
    ?(pre_resolved : (int, (int * int64) list) Hashtbl.t = Hashtbl.create 1)
    ?(pre_resolved_ctx : (int, (int * int * int64) list) Hashtbl.t = Hashtbl.create 1)
    ?(slot_ranks : (int, (int * bool) list) Hashtbl.t = Hashtbl.create 1)
    ?(dead_sites : (int, unit) Hashtbl.t = Hashtbl.create 1)
    (m : Machine.t) : t =
  let cs_by_addr = Hashtbl.create 64 and interned = ref [] in
  List.iter
    (fun (cm : Instrument.callsite_meta) ->
      let e_addr = Machine.Layout.addr_of_loc m.layout cm.cm_loc in
      let e_ranks =
        Option.value ~default:[] (Hashtbl.find_opt slot_ranks cm.cm_id)
      in
      let e_pre_ctx =
        (* Group the flat (pos, caller, value) triples per position,
           keeping caller order; sorted by position for determinism. *)
        List.sort compare
          (List.fold_left
             (fun acc (pos, caller, v) ->
               let cur = Option.value ~default:[] (List.assoc_opt pos acc) in
               (pos, cur @ [ (caller, v) ]) :: List.remove_assoc pos acc)
             []
             (Option.value ~default:[]
                (Hashtbl.find_opt pre_resolved_ctx cm.cm_id)))
      in
      let e_cheap =
        (* A single-probe recipe exists only for ranked-untainted
           positions bound to an addressable object; everything else
           keeps the full binding+shadow path. *)
        List.filter_map
          (fun (pos, tainted) ->
            if tainted then None
            else
              match List.assoc_opt pos cm.cm_specs with
              | Some (Arg_analysis.Bind_var v) -> (
                try
                  Some
                    ( pos,
                      Cheap_frame
                        (Machine.Layout.var_offset m.layout cm.cm_loc.func v.vid) )
                with Invalid_argument _ -> None)
              | Some (Arg_analysis.Bind_global g) ->
                Some (pos, Cheap_global (Machine.Layout.global_addr m.layout g))
              | Some (Bind_const _ | Bind_cstr _ | Bind_faddr _) | None -> None)
          e_ranks
      in
      Hashtbl.replace cs_by_addr e_addr
        {
          e_id = cm.cm_id;
          e_loc = cm.cm_loc;
          e_addr;
          e_callee = cm.cm_callee;
          e_sysno = cm.cm_sysno;
          e_specs = List.map (fun (pos, b) -> (pos, resolve_spec m interned b)) cm.cm_specs;
          e_pre =
            Option.value ~default:[] (Hashtbl.find_opt pre_resolved cm.cm_id);
          e_pre_ctx;
          e_dead = Hashtbl.mem dead_sites cm.cm_id;
          e_ranks;
          e_cheap;
        })
    inst.callsites;
  let func_slots = Hashtbl.create 64 in
  List.iter
    (fun (f : Sil.Func.t) ->
      match Arg_analysis.sensitive_locals_of analysis f.fname with
      | [] -> ()
      | vars ->
        let offsets =
          List.filter_map
            (fun (v : Sil.Operand.var) ->
              try Some (Machine.Layout.var_offset m.layout f.fname v.vid)
              with Invalid_argument _ -> None)
            vars
        in
        Hashtbl.replace func_slots f.fname offsets)
    (Sil.Prog.functions m.prog);
  let checked_globals =
    (* Sensitive scalar/aggregate globals, plus sensitive fields of any
       struct-typed global. *)
    let direct =
      List.map
        (fun g ->
          (g, Machine.Layout.global_addr m.layout g, Machine.Layout.global_words m.layout g))
        (Arg_analysis.sensitive_globals analysis)
    in
    let field_regions gname sname ~elem_base =
      List.filter_map
        (fun (s, f) ->
          if String.equal s sname then
            let off = Sil.Types.field_offset m.prog.structs s f in
            let words =
              Sil.Types.size_words m.prog.structs
                (Sil.Types.field_type m.prog.structs s f)
            in
            Some
              ( Printf.sprintf "%s.%s" gname f,
                Machine.Memory.addr_add elem_base off,
                words )
          else None)
        (Arg_analysis.sensitive_fields analysis)
    in
    let fields =
      List.concat_map
        (fun (g : Sil.Prog.global) ->
          let base = Machine.Layout.global_addr m.layout g.gname in
          match g.gty with
          | Sil.Types.Struct sname -> field_regions g.gname sname ~elem_base:base
          | Sil.Types.Array (Sil.Types.Struct sname, n) ->
            (* Arrays of structs (vtable-like object tables): check the
               sensitive fields of every element. *)
            let elem = Sil.Types.size_words m.prog.structs (Sil.Types.Struct sname) in
            List.concat_map
              (fun e ->
                field_regions
                  (Printf.sprintf "%s[%d]" g.gname e)
                  sname
                  ~elem_base:(Machine.Memory.addr_add base (e * elem)))
              (List.init n Fun.id)
          | Sil.Types.Void | Sil.Types.I64 | Sil.Types.Ptr _ | Sil.Types.Array _
          | Sil.Types.Func _ -> [])
        m.prog.globals
    in
    direct @ fields
  in
  let calls = ref 0 in
  iter_calls m.layout (fun _ _ -> incr calls);
  let entry_count =
    Hashtbl.length cs_by_addr + !calls + Cfg_analysis.pair_count cfg
    + List.length checked_globals
  in
  { calltype; cfg; cs_by_addr; func_slots; checked_globals; entry_count;
    rodata = Array.of_list (List.rev !interned);
    fingerprint = { lock = Mutex.create (); value = None } }

(** Make a fresh machine's rodata agree with the one [t] was built on:
    intern [t]'s string constants there in [build]'s order. *)
let load (t : t) (m : Machine.t) =
  Array.iter
    (fun (s, addr) ->
      if not (Int64.equal (Machine.Layout.intern_string m.layout m.mem s) addr) then
        invalid_arg
          (Printf.sprintf "Metadata.load: %S interned at a different address" s))
    t.rodata

(* ------------------------------------------------------------------ *)
(* Fingerprinting.  The replay trace header pins the metadata bundle a
   stream was recorded against; the replay engine refuses to judge a
   trace against different metadata (same hard-gate posture as the
   metadata-file version check).  FNV-1a over a canonical rendering —
   not [Hashtbl.hash], whose value is not stable across compiler
   versions and must not leak into checked-in golden traces. *)

let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let fnv1a (acc : int64) (s : string) : int64 =
  let h = ref acc in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  (* Fold the terminator so "ab"+"c" and "a"+"bc" hash differently. *)
  Int64.mul (Int64.logxor !h 0xffL) fnv_prime

let sorted_by_addr tbl =
  List.sort (fun (a, _) (b, _) -> Int64.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let spec_string = function
  | Spec_const c -> Printf.sprintf "c%Lx" c
  | Spec_mem -> "m"

(* The canonical rendering behind {!fingerprint}; the calling
   conventions come from [layout]'s code image. *)
let render (t : t) (layout : Machine.Layout.t) : string =
  let h = ref fnv_basis in
  let add s = h := fnv1a !h s in
  add (Printf.sprintf "entries=%d;cfg-pairs=%d" t.entry_count
         (Cfg_analysis.pair_count t.cfg));
  List.iter
    (fun (addr, (e : cs_entry)) ->
      (* Context records, ranks and dead flags join the rendering only
         when present, so bundles without the new judgements keep their
         historical fingerprints (checked-in golden traces stay valid). *)
      let extras =
        (if e.e_dead then [ "dead" ] else [])
        @ (match e.e_pre_ctx with
          | [] -> []
          | ctx ->
            [ "ctx="
              ^ String.concat ","
                  (List.map
                     (fun (p, alts) ->
                       Printf.sprintf "%d=%s" p
                         (String.concat "/"
                            (List.map
                               (fun (caller, v) -> Printf.sprintf "%d:%Lx" caller v)
                               alts)))
                     ctx) ])
        @
        match e.e_ranks with
        | [] -> []
        | ranks ->
          [ "rank="
            ^ String.concat ","
                (List.map
                   (fun (p, tainted) ->
                     Printf.sprintf "%d=%c" p (if tainted then 't' else 'u'))
                   ranks) ]
      in
      add
        (Printf.sprintf "cs:%Lx:%d:%s:%s:%s:%s%s" addr e.e_id e.e_callee
           (match e.e_sysno with None -> "-" | Some n -> string_of_int n)
           (String.concat ","
              (List.map (fun (p, s) -> Printf.sprintf "%d=%s" p (spec_string s))
                 e.e_specs))
           (String.concat ","
              (List.map (fun (p, c) -> Printf.sprintf "%d=%Lx" p c) e.e_pre))
           (match extras with [] -> "" | l -> ":" ^ String.concat ":" l)))
    (sorted_by_addr t.cs_by_addr);
  let funcs = (Machine.Layout.image layout).funcs in
  iter_calls layout (fun addr (c : Machine.Layout.call) ->
      add
        (match c.target with
        | Direct f -> Printf.sprintf "conv:%Lx:d:%s" addr funcs.(f).name
        | Unknown_callee f -> Printf.sprintf "conv:%Lx:d:%s" addr f
        | Indirect _ -> Printf.sprintf "conv:%Lx:i" addr));
  List.iter
    (fun (name, nr, _) ->
      let ct = Calltype.call_type t.calltype nr in
      if ct.directly || ct.indirectly then
        add
          (Printf.sprintf "ct:%s:%b:%b" name ct.directly ct.indirectly))
    Kernel.Syscalls.table;
  List.iter
    (fun (fname, offsets) ->
      add
        (Printf.sprintf "slots:%s:%s" fname
           (String.concat "," (List.map string_of_int offsets))))
    (List.sort compare
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.func_slots []));
  List.iter
    (fun (name, addr, words) ->
      add (Printf.sprintf "g:%s:%Lx:%d" name addr words))
    t.checked_globals;
  Printf.sprintf "fnv1a64:%016Lx" !h

(** A stable fingerprint of the deployed metadata: callsite entries
    (including pre-resolved constants), calling conventions, call-type
    classification, CFG pair count, sensitive slots and globals.  Two
    bundles that could judge a trap differently fingerprint apart.
    Rendered on the first call and kept: every machine [t] deploys on
    runs the same program, so any of their layouts renders the same. *)
let fingerprint (t : t) (layout : Machine.Layout.t) : string =
  let cell = t.fingerprint in
  Mutex.protect cell.lock (fun () ->
      match cell.value with
      | Some fp -> fp
      | None ->
        let fp = render t layout in
        cell.value <- Some fp;
        fp)
