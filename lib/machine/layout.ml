(* Address-space layout, code addressing and the decoded code image.

   Every SIL instruction and block terminator receives a concrete code
   address, so the simulated machine has a real instruction pointer:
   return addresses are plain words spilled to stack memory (corruptible,
   as on real hardware without CET), function pointers are code
   addresses, and BASTION's metadata can be keyed by callsite address
   exactly as the paper keys it by binary offset.

   [build] also decodes the program once into a dense code image: the
   functions in sorted-name order, each with its frame size and a
   vid-indexed slot array; every block with the code address of its
   first instruction; and instructions whose jump labels, direct-call
   targets, variable slots, global addresses, field offsets and element
   sizes are already resolved.  Code points (instructions and
   terminators) are numbered contiguously, so code address and point
   number convert with one subtraction and one shift.  A name that does
   not resolve is decoded into a node that raises the same
   [Invalid_argument] when executed, so failures surface where they
   always did.

   A layout is a pure function of its program and is never written
   after [build], so every machine of the program shares one, on any
   domain.  What a machine interns in rodata is the machine's own
   ([Machine.intern_string]); a string literal carries only an id into
   the machine's table of literal addresses. *)

type code_point =
  | Instr_at of Sil.Loc.t
  | Term_of of string * string  (** function, block *)

let code_base = 0x0040_0000L
let rodata_base = 0x0050_0000L
let data_base = 0x0060_0000L
let heap_base = 0x0070_0000L
(* shadow_base: the $gs-relative BASTION shadow region *)
let shadow_base = 0x2000_0000L
let stack_base = 0x7fff_0000L

(* ------------------------------------------------------------------ *)
(* The code image                                                      *)

type literal = { text : string; id : int }

type operand =
  | Imm of int64
  | Slot of int
  | Word_at of int64
  | Lit of literal
  | Unresolved of string

type place =
  | Pslot of int
  | Pabs of int64
  | Pfield of operand * int
  | Pindex of operand * operand * int
  | Pderef of operand
  | Punresolved of operand list * string

type rvalue =
  | Use of operand
  | Load of place
  | Addr_of of place
  | Binop of Sil.Instr.binop * operand * operand

type target = Direct of int | Indirect of operand | Unknown_callee of string

type call = { dst : place option; target : target; args : operand array }

type instr = Assign of place * rvalue | Store of place * operand | Call of call

type term =
  | Jump of int
  | Branch of operand * int * int
  | Ret of operand option
  | Halt
  | Missing_block of string

type block = {
  label : string;
  owner : int;
  base : int64;
  first_point : int;
  instrs : instr array;
  term : term;
}

type func = {
  name : string;
  kind : Sil.Func.kind;
  entry : int64;
  entry_block : int;
  frame_words : int;
  slots : int array;
  params : int array;
}

type image = { funcs : func array; blocks : block array; point_block : int array }

module Smap = Map.Make (String)

type t = {
  program : Sil.Prog.t;
  image : image;
  globals : (int64 * int) Smap.t;  (** address, words *)
  literals : int;                  (** distinct string literals *)
  max_args : int;                  (** the most arguments one call passes *)
}

let image t = t.image
let program t = t.program
let literals t = t.literals
let max_args t = t.max_args

let var_missing fname vid = Printf.sprintf "Layout.var_offset: %s has no var #%d" fname vid
let func_missing fname = "Layout.func_entry: unknown function " ^ fname
let callee_missing fname = "Prog.find_func: unknown function " ^ fname
let global_missing gname = "Layout.global_addr: unknown global " ^ gname

let slot_of (slots : int array) vid =
  if vid >= 0 && vid < Array.length slots then slots.(vid) else -1

(* Frame layout: slot offsets for params then locals, indexed by vid. *)
let frame_layout structs (f : Sil.Func.t) =
  let vars = Sil.Func.all_vars f in
  let top = List.fold_left (fun m ((v : Sil.Operand.var), _) -> max m v.vid) (-1) vars in
  let slots = Array.make (top + 1) (-1) in
  let off = ref 0 in
  List.iter
    (fun ((v : Sil.Operand.var), ty) ->
      if v.vid >= 0 then slots.(v.vid) <- !off;
      off := !off + max 1 (Sil.Types.size_words structs ty))
    vars;
  (slots, !off)

(* The index of the function named [fname] in the name-sorted [funcs],
   or -1.  Of several functions of one name (a program edited with
   [Hashtbl.add]) the last one wins. *)
let index_of (funcs : func array) fname =
  let lo = ref 0 and hi = ref (Array.length funcs) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare funcs.(mid).name fname <= 0 then lo := mid + 1 else hi := mid
  done;
  if !lo > 0 && String.equal funcs.(!lo - 1).name fname then !lo - 1 else -1

(* Decoded nodes are immutable, so a build keeps one copy of each:
   [sharing ()] maps a node to the first equal node it was given. *)
let sharing () =
  let seen = Hashtbl.create 1024 in
  fun v ->
    match Hashtbl.find_opt seen v with
    | Some first -> first
    | None ->
      Hashtbl.add seen v v;
      v

let build (prog : Sil.Prog.t) : t =
  let defs = Array.of_list (Sil.Prog.functions prog) in
  (* Number blocks and code points: functions in sorted order, one point
     per instruction and per terminator.  A function starts at its first
     block and point. *)
  let nblocks = ref 0 and npoints = ref 0 in
  let starts =
    Array.map
      (fun (f : Sil.Func.t) ->
        let start = (!nblocks, !npoints) in
        List.iter
          (fun (b : Sil.Func.block) ->
            incr nblocks;
            npoints := !npoints + Array.length b.instrs + 1)
          f.blocks;
        start)
      defs
  in
  let share_offsets = sharing () in
  let funcs =
    Array.mapi
      (fun i (f : Sil.Func.t) ->
        let first_block, first_point = starts.(i) in
        let slots, frame_words = frame_layout prog.structs f in
        {
          name = f.fname;
          kind = f.kind;
          entry = Int64.add code_base (Int64.of_int (8 * first_point));
          entry_block = (if f.blocks = [] then -1 else first_block);
          frame_words;
          slots = share_offsets slots;
          params =
            share_offsets
              (Array.of_list
                 (List.map (fun ((v : Sil.Operand.var), _) -> slot_of slots v.vid) f.params));
        })
      defs
  in
  (* Globals, laid out in declaration order. *)
  let globals, _ =
    List.fold_left
      (fun (globals, next) (g : Sil.Prog.global) ->
        let words = max 1 (Sil.Types.size_words prog.structs g.gty) in
        (Smap.add g.gname (next, words) globals, Int64.add next (Int64.of_int (8 * words))))
      (Smap.empty, data_base) prog.globals
  in
  let global_at g = Option.map fst (Smap.find_opt g globals) in
  (* Decode.  A jump to a label the function lacks targets a block
     appended past the real ones that raises when reached.  Each
     distinct literal text gets the next id. *)
  let missing = ref [] and nmissing = ref 0 in
  let literals = Hashtbl.create 16 in
  let literal text =
    match Hashtbl.find_opt literals text with
    | Some l -> l
    | None ->
      let l = { text; id = Hashtbl.length literals } in
      Hashtbl.add literals text l;
      l
  in
  let share_operand = sharing () and share_place = sharing () in
  let share_rvalue = sharing () and share_instr = sharing () in
  let decode_block fi (f : Sil.Func.t) first_point (b : Sil.Func.block) =
    let slots = funcs.(fi).slots in
    let operand (op : Sil.Operand.t) : operand =
      share_operand
        (match op with
        | Const n -> Imm n
        | Null -> Imm 0L
        | Cstr s -> Lit (literal s)
        | Var v -> (
          match slot_of slots v.vid with
          | -1 -> Unresolved (var_missing f.fname v.vid)
          | off -> Slot off)
        | Global g -> (
          match global_at g with
          | Some a -> Word_at a
          | None -> Unresolved (global_missing g))
        | Func_addr fname -> (
          match index_of funcs fname with
          | -1 -> Unresolved (func_missing fname)
          | j -> Imm funcs.(j).entry))
    in
    let var_place (v : Sil.Operand.var) =
      share_place
        (match slot_of slots v.vid with
        | -1 -> Punresolved ([], var_missing f.fname v.vid)
        | off -> Pslot off)
    in
    let sized base evaluated k =
      match k () with
      | n -> base n
      | exception Invalid_argument msg -> Punresolved (evaluated, msg)
    in
    let place : Sil.Place.t -> place = function
      | Lvar v -> var_place v
      | Lglobal g ->
        share_place
          (match global_at g with
          | Some a -> Pabs a
          | None -> Punresolved ([], global_missing g))
      | Lfield (base, sname, field) ->
        let base = operand base in
        share_place
          (sized (fun off -> Pfield (base, off)) [ base ] (fun () ->
               Sil.Types.field_offset prog.structs sname field))
      | Lindex (base, index, elem_ty) ->
        let base = operand base and index = operand index in
        share_place
          (sized (fun n -> Pindex (base, index, n)) [ base; index ] (fun () ->
               max 1 (Sil.Types.size_words prog.structs elem_ty)))
      | Lderef p -> share_place (Pderef (operand p))
    in
    let rvalue (rv : Sil.Instr.rvalue) : rvalue =
      share_rvalue
        (match rv with
        | Use op -> Use (operand op)
        | Load p -> Load (place p)
        | Addr_of p -> Addr_of (place p)
        | Binop (op, a, b) -> Binop (op, operand a, operand b))
    in
    let instr (ins : Sil.Instr.t) : instr =
      share_instr
        (match ins with
        | Assign (v, rv) -> Assign (var_place v, rvalue rv)
        | Store (p, op) -> Store (place p, operand op)
        | Call { dst; target; args } ->
          let target =
            match target with
            | Direct name -> (
              match index_of funcs name with -1 -> Unknown_callee name | j -> Direct j)
            | Indirect op -> Indirect (operand op)
          in
          Call
            { dst = Option.map var_place dst; target;
              args = Array.of_list (List.map operand args) })
    in
    let label l =
      let rec find k = function
        | (c : Sil.Func.block) :: rest ->
          if String.equal c.label l then fst starts.(fi) + k else find (k + 1) rest
        | [] ->
          let id = !nblocks + !nmissing in
          incr nmissing;
          missing :=
            {
              label = l;
              owner = fi;
              base = 0L;
              first_point = -1;
              instrs = [||];
              term =
                Missing_block (Printf.sprintf "Func.find_block: %s has no block %s" f.fname l);
            }
            :: !missing;
          id
      in
      find 0 f.blocks
    in
    let term : Sil.Instr.terminator -> term = function
      | Jump l -> Jump (label l)
      | Branch (c, l1, l2) -> Branch (operand c, label l1, label l2)
      | Ret op -> Ret (Option.map operand op)
      | Halt -> Halt
    in
    {
      label = b.label;
      owner = fi;
      base = Int64.add code_base (Int64.of_int (8 * first_point));
      first_point;
      instrs = Array.map instr b.instrs;
      term = term b.term;
    }
  in
  let point_block = Array.make !npoints 0 in
  let decoded =
    List.concat
      (List.mapi
         (fun fi (f : Sil.Func.t) ->
           let block, point = starts.(fi) in
           let point = ref point in
           List.mapi
             (fun k (b : Sil.Func.block) ->
               let n = Array.length b.instrs + 1 in
               Array.fill point_block !point n (block + k);
               let decoded = decode_block fi f !point b in
               point := !point + n;
               decoded)
             f.blocks)
         (Array.to_list defs))
  in
  let blocks = Array.of_list (decoded @ List.rev !missing) in
  let max_args =
    Array.fold_left
      (fun acc (b : block) ->
        Array.fold_left
          (fun acc -> function Call c -> max acc (Array.length c.args) | Assign _ | Store _ -> acc)
          acc b.instrs)
      0 blocks
  in
  { program = prog; image = { funcs; blocks; point_block }; globals;
    literals = Hashtbl.length literals; max_args }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(** The code point number of an address, or -1 if it is none.  Inlined,
    like [entry_func], so the interpreter's address stays unboxed. *)
let[@inline] point_index t addr =
  let n = Array.length t.image.point_block in
  if addr < code_base then -1
  else
    let rel = Int64.sub addr code_base in
    if rel >= Int64.of_int (8 * n) || Int64.logand rel 7L <> 0L then -1
    else Int64.to_int rel lsr 3

let block_of_point t p = t.image.blocks.(t.image.point_block.(p))

let find_func t fname = match index_of t.image.funcs fname with -1 -> None | fi -> Some fi

(** The location of instruction [i] of [blk]. *)
let loc_at t (blk : block) i = Sil.Loc.make t.image.funcs.(blk.owner).name blk.label i

(** The decoded call instruction at a code address, if the address
    holds one (a terminator or any other instruction is no call). *)
let call_at t addr =
  match point_index t addr with
  | -1 -> None
  | p -> (
    let blk = block_of_point t p in
    let i = p - blk.first_point in
    if i >= Array.length blk.instrs then None
    else match blk.instrs.(i) with Call c -> Some c | Assign _ | Store _ -> None)

let addr_of_point t point =
  let fail () = invalid_arg "Layout.addr_of_point: unknown code point" in
  let fname, label, index =
    match point with
    | Instr_at (loc : Sil.Loc.t) -> (loc.func, loc.block, Some loc.index)
    | Term_of (fname, label) -> (fname, label, None)
  in
  match find_func t fname with
  | None -> fail ()
  | Some fi ->
    let f = t.image.funcs.(fi) in
    let rec scan b =
      if b >= Array.length t.image.blocks then fail ()
      else
        let blk = t.image.blocks.(b) in
        if blk.owner <> fi || blk.first_point < 0 then fail ()
        else if String.equal blk.label label then blk
        else scan (b + 1)
    in
    let blk = if f.entry_block < 0 then fail () else scan f.entry_block in
    let n = Array.length blk.instrs in
    let index =
      match index with
      | None -> n
      | Some i -> if i < 0 || i >= n then fail () else i
    in
    Int64.add blk.base (Int64.of_int (8 * index))

let addr_of_loc t loc = addr_of_point t (Instr_at loc)

let point_of_addr t addr =
  match point_index t addr with
  | -1 -> None
  | p ->
    let blk = block_of_point t p in
    let i = p - blk.first_point in
    if i < Array.length blk.instrs then Some (Instr_at (loc_at t blk i))
    else Some (Term_of (t.image.funcs.(blk.owner).name, blk.label))

let func_entry t fname =
  match find_func t fname with
  | Some fi -> t.image.funcs.(fi).entry
  | None -> invalid_arg (func_missing fname)

(** The function a code address belongs to, if any. *)
let func_of_addr t addr =
  match point_index t addr with
  | -1 -> None
  | p -> Some t.image.funcs.((block_of_point t p).owner).name

(** The function whose entry is [addr], as an index, or -1: a call
    target must be a function entry address. *)
let[@inline] entry_func t addr =
  match point_index t addr with
  | -1 -> -1
  | p ->
    let fi = (block_of_point t p).owner in
    if t.image.funcs.(fi).entry = addr then fi else -1

let func_of_entry_addr t addr =
  match entry_func t addr with -1 -> None | fi -> Some t.image.funcs.(fi).name

let global_addr t gname =
  match Smap.find_opt gname t.globals with
  | Some (a, _) -> a
  | None -> invalid_arg (global_missing gname)

let global_words t gname =
  match Smap.find_opt gname t.globals with
  | Some (_, n) -> n
  | None -> invalid_arg ("Layout.global_words: unknown global " ^ gname)

let var_offset t fname vid =
  match Option.map (fun fi -> slot_of t.image.funcs.(fi).slots vid) (find_func t fname) with
  | Some off when off >= 0 -> off
  | Some _ | None -> invalid_arg (var_missing fname vid)

let frame_words t fname =
  match find_func t fname with
  | Some fi -> t.image.funcs.(fi).frame_words
  | None -> invalid_arg ("Layout.frame_words: unknown function " ^ fname)
