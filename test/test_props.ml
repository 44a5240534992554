(* Property-based tests (qcheck) on the core data structures and
   invariants, registered as alcotest cases. *)

let gen_addr = QCheck.map (fun n -> Int64.of_int (abs n land 0xFFFFF8)) QCheck.int
let gen_word = QCheck.map Int64.of_int QCheck.int

(* --- shadow memory behaves like a map -------------------------------- *)

let prop_shadow_model =
  QCheck.Test.make ~count:200 ~name:"shadow memory agrees with a model map"
    QCheck.(list (pair gen_addr gen_word))
    (fun ops ->
      let shadow = Bastion.Shadow_memory.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (addr, v) ->
          Bastion.Shadow_memory.set_shadow shadow ~addr ~value:v;
          Hashtbl.replace model addr v)
        ops;
      Hashtbl.fold
        (fun addr v acc ->
          acc && Bastion.Shadow_memory.shadow shadow ~addr = Some v)
        model true
      && Bastion.Shadow_memory.entry_count shadow = Hashtbl.length model)

let prop_shadow_growth =
  QCheck.Test.make ~count:20 ~name:"shadow memory survives growth"
    QCheck.(int_range 100 4000)
    (fun n ->
      let shadow = Bastion.Shadow_memory.create () in
      for i = 1 to n do
        Bastion.Shadow_memory.set_shadow shadow ~addr:(Int64.of_int (i * 8))
          ~value:(Int64.of_int (i * 3))
      done;
      let ok = ref true in
      for i = 1 to n do
        if
          Bastion.Shadow_memory.shadow shadow ~addr:(Int64.of_int (i * 8))
          <> Some (Int64.of_int (i * 3))
        then ok := false
      done;
      !ok)

(* Raw insert/find on the open-addressed table, with enough keys to
   force at least one [grow] (initial capacity is far below 3000):
   every inserted binding must survive the rehash, and the insert-probe
   counters must have seen every insert. *)
let prop_shadow_insert_roundtrip =
  QCheck.Test.make ~count:20 ~name:"insert/find roundtrip across grow"
    QCheck.(pair (int_range 200 3000) (int_range 1 1000))
    (fun (n, salt) ->
      let shadow = Bastion.Shadow_memory.create () in
      let key i = Int64.of_int ((i * 8) + (salt * 16)) in
      for i = 1 to n do
        Bastion.Shadow_memory.insert shadow (key i) (Int64.of_int (i + salt))
      done;
      let ok = ref true in
      for i = 1 to n do
        if Bastion.Shadow_memory.find shadow (key i) <> Some (Int64.of_int (i + salt))
        then ok := false
      done;
      !ok
      && Bastion.Shadow_memory.insert_count shadow >= n
      && Bastion.Shadow_memory.insert_probe_count shadow
         >= Bastion.Shadow_memory.insert_count shadow)

(* The shadow table against its boxed reference ([Testlib.Shadow_ref]):
   after every insert or lookup the two agree on the value found, the
   probes that lookup took, the insert-probe total, the entry count and
   the capacity.  Keys come from a per-case pool over the whole int64
   range: each address possibly with bit 63 flipped (negative keys and
   bit-63 twins), binding keys, and runs of consecutive words that
   crowd one probe run.  Values are often 0, which is a legal shadow
   value.  Some pools hold thousands of keys, so the table grows
   several times mid-sequence. *)
type shadow_op = Sput of int64 * int64 | Sget of int64

let gen_shadow_ops =
  let open QCheck.Gen in
  let value = frequency [ (1, return 0L); (3, int64) ] in
  let binding =
    map2 (fun id pos -> Bastion.Shadow_memory.binding_key ~id ~pos) (int_range 0 5000)
      (int_range 0 15)
  in
  let run =
    map2 (fun base n -> List.init n (Machine.Memory.addr_add base)) int64 (int_range 1 6000)
  in
  frequency
    [
      (4, pair (list_size (int_range 1 12) (oneof [ int64; binding ])) (int_range 0 80));
      ( 1,
        pair
          (map3
             (fun r bs ks -> r @ bs @ ks)
             run (list_size (int_range 0 400) binding) (list_size (int_range 0 200) int64))
          (int_range 2000 14000) );
    ]
  >>= fun (pool, n) ->
  let pool = Array.of_list pool in
  let key =
    map2 (fun k flip -> if flip then Int64.logxor k Int64.min_int else k) (oneofa pool) bool
  in
  list_repeat n
    (frequency
       [ (3, map2 (fun k v -> Sput (k, v)) key value); (2, map (fun k -> Sget k) key) ])

let print_shadow_op = function
  | Sput (k, v) -> Printf.sprintf "insert %Lx %Ld" k v
  | Sget k -> Printf.sprintf "lookup %Lx" k

let prop_shadow_reference =
  QCheck.Test.make ~count:60 ~name:"shadow table matches its boxed reference, probe for probe"
    (QCheck.make ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops)) gen_shadow_ops)
    (fun ops ->
      let module S = Bastion.Shadow_memory in
      let module R = Testlib.Shadow_ref in
      let t = S.create () and r = R.create () in
      List.iteri
        (fun i op ->
          let fail what =
            QCheck.Test.fail_reportf "op %d (%s): %s differs from the reference" i
              (print_shadow_op op) what
          in
          (match op with
          | Sput (k, v) -> S.insert t k v; R.insert r k v
          | Sget k ->
            let before = S.probe_count t in
            let found = S.find t k in
            let want, probes = R.find_probes r k in
            if found <> want then fail "the value found";
            if S.probe_count t - before <> probes then fail "the lookup's probe count");
          if S.insert_probe_count t <> r.insert_probes then fail "the insert-probe total";
          if S.capacity t <> R.capacity r then fail "the capacity";
          if S.entry_count t <> r.count then fail "the entry count";
          if S.insert_count t <> r.inserts || S.lookup_count t <> r.lookups then
            fail "an operation count")
        ops;
      true)

let prop_binding_key_injective =
  QCheck.Test.make ~count:500 ~name:"binding_key injective over valid (id,pos)"
    QCheck.(
      pair
        (pair (int_range 0 100000) (int_range 0 15))
        (pair (int_range 0 100000) (int_range 0 15)))
    (fun ((id1, pos1), (id2, pos2)) ->
      let k1 = Bastion.Shadow_memory.binding_key ~id:id1 ~pos:pos1 in
      let k2 = Bastion.Shadow_memory.binding_key ~id:id2 ~pos:pos2 in
      if id1 = id2 && pos1 = pos2 then Int64.equal k1 k2
      else not (Int64.equal k1 k2))

let prop_binding_keys_disjoint =
  QCheck.Test.make ~count:500 ~name:"binding keys never collide with addresses"
    QCheck.(pair (pair (int_range 0 100000) (int_range 0 15)) gen_addr)
    (fun ((id, pos), addr) ->
      not (Int64.equal (Bastion.Shadow_memory.binding_key ~id ~pos) addr))

(* --- machine memory ---------------------------------------------------- *)

let prop_memory_roundtrip =
  QCheck.Test.make ~count:200 ~name:"memory write/read roundtrip"
    QCheck.(list (pair gen_addr gen_word))
    (fun ops ->
      let mem = Machine.Memory.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (addr, v) ->
          Machine.Memory.write mem addr v;
          Hashtbl.replace model addr v)
        ops;
      Hashtbl.fold
        (fun addr v acc -> acc && Int64.equal (Machine.Memory.read mem addr) v)
        model true)

(* Memory against a [Map] model over the whole int64 address range.
   Addresses come from a per-case pool, each possibly with bit 63
   flipped, so negative addresses and pairs that differ only in bit 63
   are common (a table keyed by [Int64.to_int] would alias them).  Most
   pools are a few addresses; some are thousands, mostly one run of
   consecutive words like a stack, with long op sequences that grow the
   table and unmap words out of the middle of probe runs. *)
module Addr_map = Map.Make (Int64)

type mem_op = Write of int64 * int64 | Read of int64 | Block of int64 * int64 array

let gen_mem_ops =
  let open QCheck.Gen in
  let word = frequency [ (1, return 0L); (3, int64) ] in
  let run =
    map2 (fun base n -> List.init n (Machine.Memory.addr_add base)) int64 (int_range 500 3000)
  in
  frequency
    [
      (4, pair (list_size (int_range 1 8) int64) (int_range 0 60));
      (1, pair (map2 ( @ ) run (list_size (int_range 0 100) int64)) (int_range 2000 8000));
    ]
  >>= fun (pool, n) ->
  let pool = Array.of_list pool in
  let addr =
    map2 (fun a flip -> if flip then Int64.logxor a Int64.min_int else a) (oneofa pool) bool
  in
  list_repeat n
    (frequency
       [
         (4, map2 (fun a v -> Write (a, v)) addr word);
         (3, map (fun a -> Read a) addr);
         (1, map2 (fun a ws -> Block (a, ws)) addr (array_size (int_range 0 6) word));
       ])

let print_mem_op = function
  | Write (a, v) -> Printf.sprintf "write %Lx %Ld" a v
  | Read a -> Printf.sprintf "read %Lx" a
  | Block (a, ws) -> Printf.sprintf "block %Lx [%d words]" a (Array.length ws)

let prop_memory_model =
  QCheck.Test.make ~count:200
    ~name:"memory agrees with a map model over all int64 addresses"
    (QCheck.make ~print:(QCheck.Print.list print_mem_op) gen_mem_ops)
    (fun ops ->
      let mem = Machine.Memory.create () in
      let store model a v =
        if Int64.equal v 0L then Addr_map.remove a model else Addr_map.add a v model
      in
      let expect model a = Option.value ~default:0L (Addr_map.find_opt a model) in
      let step model op =
        let model, ok =
          match op with
          | Write (a, v) ->
            Machine.Memory.write mem a v;
            (store model a v, Int64.equal (Machine.Memory.read mem a) v)
          | Read a -> (model, Int64.equal (Machine.Memory.read mem a) (expect model a))
          | Block (a, ws) ->
            Machine.Memory.write_block mem a ws;
            let model = ref model in
            Array.iteri (fun i v -> model := store !model (Machine.Memory.addr_add a i) v) ws;
            (!model, Machine.Memory.read_block mem a (Array.length ws) = ws)
        in
        if not ok then QCheck.Test.fail_reportf "%s disagrees with the model" (print_mem_op op);
        if Machine.Memory.mapped_words mem <> Addr_map.cardinal model then
          QCheck.Test.fail_reportf "after %s: %d mapped words, model has %d non-zero"
            (print_mem_op op) (Machine.Memory.mapped_words mem) (Addr_map.cardinal model);
        model
      in
      let model = List.fold_left step Addr_map.empty ops in
      Addr_map.for_all (fun a v -> Int64.equal (Machine.Memory.read mem a) v) model)

let printable_string =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 60)
    (QCheck.Gen.char_range '\032' '\126')

let prop_string_roundtrip =
  QCheck.Test.make ~count:200 ~name:"string store/load roundtrip" printable_string
    (fun s ->
      QCheck.assume (not (String.contains s '\000'));
      let mem = Machine.Memory.create () in
      let _ = Machine.Memory.write_string mem 0x8000L s in
      String.equal (Machine.Memory.read_string mem 0x8000L) s)

(* --- binop evaluator ---------------------------------------------------- *)

let prop_binop_comparisons =
  QCheck.Test.make ~count:300 ~name:"comparison operators are consistent"
    QCheck.(pair gen_word gen_word)
    (fun (a, b) ->
      let v op = Sil.Instr.eval_binop op a b in
      let as_bool x = not (Int64.equal x 0L) in
      as_bool (v Sil.Instr.Eq) = not (as_bool (v Sil.Instr.Ne))
      && as_bool (v Sil.Instr.Lt) = not (as_bool (v Sil.Instr.Ge))
      && as_bool (v Sil.Instr.Gt) = not (as_bool (v Sil.Instr.Le))
      && (as_bool (v Sil.Instr.Lt) || as_bool (v Sil.Instr.Gt)
         || as_bool (v Sil.Instr.Eq)))

let prop_binop_algebra =
  QCheck.Test.make ~count:300 ~name:"add/sub and xor involution"
    QCheck.(pair gen_word gen_word)
    (fun (a, b) ->
      let open Sil.Instr in
      Int64.equal (eval_binop Sub (eval_binop Add a b) b) a
      && Int64.equal (eval_binop Xor (eval_binop Xor a b) b) a
      && Int64.equal (eval_binop Div a 0L) 0L)

(* --- loops execute the right number of times ---------------------------- *)

let prop_counted_loop =
  QCheck.Test.make ~count:30 ~name:"counted_loop performs exactly n syscalls"
    QCheck.(int_range 0 50)
    (fun n ->
      let pb = Sil.Builder.program () in
      Kernel.Syscalls.declare_stubs pb;
      let fb = Sil.Builder.func pb "main" ~params:[] in
      Workloads.Appkit.counted_loop fb ~tag:"t" ~count:n (fun fb ->
          Sil.Builder.call fb "getpid" []);
      Sil.Builder.halt fb;
      Sil.Builder.seal fb;
      let prog = Sil.Builder.build pb ~entry:"main" in
      let machine = Machine.create prog in
      let proc = Kernel.boot machine in
      match Machine.run machine with
      | Machine.Exited _ ->
        Kernel.Process.syscall_count proc (Kernel.Syscalls.number "getpid") = n
      | Machine.Faulted _ -> false)

(* --- layout -------------------------------------------------------------- *)

(* The dense code image's laws (see [Testlib.code_image_violations])
   over random programs; the three workload models are checked in
   [test_machine.ml]. *)
let prop_layout_injective =
  QCheck.Test.make ~count:100
    ~name:"code addresses are injective over locations and form a dense code image"
    QCheck.(small_list (int_range 0 1024))
    (fun codes ->
      match Testlib.code_image_violations (Testlib.random_prog codes) with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_reportf "%s" v)

(* --- seccomp allowlist ---------------------------------------------------- *)

let prop_allowlist =
  QCheck.Test.make ~count:100 ~name:"allowlist allows exactly its members"
    QCheck.(pair (list (int_range 0 400)) (int_range 0 400))
    (fun (allowed, probe) ->
      let f = Kernel.Seccomp.allowlist allowed in
      let verdict = Kernel.Seccomp.evaluate f probe in
      if List.mem probe allowed then verdict = Kernel.Seccomp.Allow
      else verdict = Kernel.Seccomp.Kill)

(* --- types ------------------------------------------------------------------ *)

let gen_ty =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then oneofl [ Sil.Types.I64; Sil.Types.Ptr Sil.Types.I64 ]
        else
          frequency
            [
              (2, oneofl [ Sil.Types.I64; Sil.Types.Ptr Sil.Types.I64 ]);
              (1, map2 (fun t k -> Sil.Types.Array (t, k)) (self (n / 2)) (int_range 1 5));
            ]))

let prop_array_sizes =
  QCheck.Test.make ~count:100 ~name:"array size = n * element size"
    (QCheck.make gen_ty)
    (fun ty ->
      let env = Sil.Types.struct_env_create () in
      let n = 7 in
      Sil.Types.size_words env (Sil.Types.Array (ty, n))
      = n * Sil.Types.size_words env ty)

(* --- the fleet's hot path against its references ------------------ *)

module F = Workloads.Fleet
module Pool = Bastion_mt.Monitor_pool

(* A hand-built fleet: tracee [k] has id [ids.(k)], weight
   [weights.(k)], offset [offsets.(k)] and a profile of [lens.(k)]
   entries that no other tracee shares, so equal schedules mean the
   same tracee *and* the same profile entry at every index. *)
let fleet_of ~shards ~ids ~weights ~offsets ~lens : F.t =
  {
    F.f_tracees =
      Array.mapi
        (fun k id ->
          {
            F.ts_id = id;
            ts_app = "t" ^ string_of_int k;
            ts_weight = weights.(k);
            ts_profile =
              Array.init lens.(k) (fun j ->
                  { F.tp_prefilter = 12; tp_snapshot = (k * 1000) + j; tp_ct = j mod 7;
                    tp_cf = k mod 5; tp_ai = 0 });
            ts_offset = offsets.(k);
          })
        ids;
    f_shards = shards;
  }

let first_difference a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i = if i >= n then n else if a.(i) = b.(i) then go (i + 1) else i in
  go 0

let check_schedule (t : F.t) ~arrivals =
  let got = F.schedule t ~arrivals and want = Testlib.Fleet_ref.schedule t ~arrivals in
  if got = want then true
  else
    QCheck.Test.fail_reportf "%d arrivals: schedules differ first at index %d (of %d / %d)"
      arrivals (first_difference got want) (Array.length got) (Array.length want)

(* Weights 0-16 with and without zeros, fleets with a negative weight,
   and fleets whose total is not positive; arrival counts below the
   total weight, equal to it, and several periods past it. *)
let gen_swrr_case =
  let open QCheck.Gen in
  let* n = int_range 1 70 in
  let* kind = int_range 0 3 in
  let weight =
    match kind with
    | 0 -> int_range 1 16
    | 1 -> frequency [ (1, return 0); (2, int_range 1 16) ]
    | 2 -> frequency [ (1, int_range (-16) (-1)); (5, int_range 0 16) ]
    | _ -> int_range (-16) 3
  in
  let* weights = array_repeat n weight in
  let* lens = array_repeat n (int_range 1 40) in
  let* offsets = array_repeat n (int_range 0 500) in
  let total = Array.fold_left ( + ) 0 weights in
  let* arrivals =
    if total <= 0 then int_range 0 600
    else
      oneof
        [
          int_range 0 (total - 1);
          return total;
          map2 (fun k r -> (k * total) + r) (int_range 2 6) (int_range 0 (total - 1));
        ]
  in
  return (weights, lens, offsets, arrivals)

let print_swrr_case (weights, lens, _, arrivals) =
  Printf.sprintf "%d tracees, weights [%s], lens [%s], %d arrivals" (Array.length weights)
    (String.concat ";" (Array.to_list (Array.map string_of_int weights)))
    (String.concat ";" (Array.to_list (Array.map string_of_int lens)))
    arrivals

let prop_swrr_period =
  QCheck.Test.make ~count:300 ~name:"SWRR schedule by period = the per-arrival loop"
    (QCheck.make ~print:print_swrr_case gen_swrr_case)
    (fun (weights, lens, offsets, arrivals) ->
      let ids = Array.mapi (fun k _ -> (3 * k) - 7) weights in
      check_schedule (fleet_of ~shards:2 ~ids ~weights ~offsets ~lens) ~arrivals)

(* The benchmark's fleet: 64 tracees shaped like [Fleet.build] (seed 0)
   and with each weight nudged by at most one and a random offset
   (other seeds), over three profiles, at 40,000 arrivals. *)
let test_swrr_period_bench_shape () =
  let tracees = 64 and lens3 = [| 58; 103; 105 |] in
  let lens = Array.init tracees (fun k -> lens3.(k mod 3)) in
  let ids = Array.init tracees Fun.id in
  let seed0 =
    fleet_of ~shards:2 ~ids
      ~weights:(Array.init tracees F.weight_of)
      ~offsets:(Array.init tracees (fun k -> k * 13 mod lens.(k)))
      ~lens
  in
  let st = Random.State.make [| 7 |] in
  let nudged =
    fleet_of ~shards:2 ~ids
      ~weights:(Array.init tracees (fun k -> max 1 (F.weight_of k + Random.State.int st 3 - 1)))
      ~offsets:(Array.init tracees (fun k -> Random.State.int st lens.(k)))
      ~lens
  in
  List.iter
    (fun (name, t) ->
      Alcotest.(check bool) name true (check_schedule t ~arrivals:40_000))
    [ ("seed-0 shape", seed0); ("nudged shape", nudged) ]

(* Random trap streams through the one-table plan and the two-table
   reference: negative tracee ids, arrivals that repeat and go
   backwards, zero service, both policies. *)
let gen_plan_case =
  let open QCheck.Gen in
  let* policy = oneofl Pool.all_policies in
  let* shards = int_range 1 5 in
  let* len = int_range 0 300 in
  let* steps =
    list_repeat len
      (triple (int_range (-6) 12) (int_range (-40) 90)
         (frequency [ (1, return 0); (3, int_range 1 200) ]))
  in
  (* Arrivals drift forwards by the step, which may be negative. *)
  let _, stream =
    List.fold_left
      (fun (at, acc) (tracee, step, service) ->
        let at = at + step in
        (at, (tracee, at, service) :: acc))
      (0, []) steps
  in
  return (policy, shards, List.rev stream)

let print_plan_case (policy, shards, stream) =
  Printf.sprintf "%s, %d shards, %d traps" (Pool.policy_name policy) shards (List.length stream)

let prop_plan_one_table =
  QCheck.Test.make ~count:300 ~name:"one-table plan routes like the two-table plan"
    (QCheck.make ~print:print_plan_case gen_plan_case)
    (fun (policy, shards, stream) ->
      let plan = Pool.Plan.create ~policy ~shards () in
      let ref_ = Testlib.Plan_ref.create ~policy ~shards in
      List.iteri
        (fun i (tracee, at, service) ->
          let shard = Pool.Plan.route plan ~tracee ~at ~service in
          let same =
            shard = Testlib.Plan_ref.route ref_ ~tracee ~at ~service
            && Pool.Plan.steals plan = ref_.pl_steals
            && Pool.Plan.migrations plan = ref_.pl_migrations
            && Pool.Plan.items_per_shard plan = ref_.pl_items
            && Pool.Plan.busy_per_shard plan = ref_.pl_busy
          in
          if not same then
            QCheck.Test.fail_reportf "trap %d (tracee %d at %d, service %d) routed differently"
              i tracee at service)
        stream;
      true)

(* Random schedules and destinations folded through the by-name
   reference and through one sink: tracee ids that are negative or
   sparse, tracees with weight 0 that never fire, and sometimes a shard
   that receives no trap. *)
let gen_registry_case =
  let open QCheck.Gen in
  let* n = int_range 1 12 in
  let* ids = array_repeat n (oneof [ int_range (-9) (-1); int_range 0 63; int_range 64 5000 ]) in
  let* weights = array_repeat n (frequency [ (1, return 0); (3, int_range 1 9) ]) in
  let* lens = array_repeat n (int_range 1 10) in
  let* offsets = array_repeat n (int_range 0 20) in
  let* shards = int_range 1 4 in
  let* skip = int_range 0 shards in
  let* arrivals = frequency [ (1, return 0); (9, int_range 1 400) ] in
  let* dests =
    array_repeat arrivals
      (map (fun s -> if s = skip && shards > 1 then (s + 1) mod shards else s)
         (int_range 0 (shards - 1)))
  in
  let* spacing = float_range 1.0 20_000.0 in
  return (ids, weights, lens, offsets, shards, dests, spacing)

let print_registry_case (ids, weights, _, _, shards, dests, spacing) =
  Printf.sprintf "ids [%s], weights [%s], %d shards, %d arrivals, spacing %g"
    (String.concat ";" (Array.to_list (Array.map string_of_int ids)))
    (String.concat ";" (Array.to_list (Array.map string_of_int weights)))
    shards (Array.length dests) spacing

let prop_fleet_registry =
  QCheck.Test.make ~count:200 ~name:"fleet sink registry = the by-name registry"
    (QCheck.make ~print:print_registry_case gen_registry_case)
    (fun (ids, weights, lens, offsets, shards, dests, spacing) ->
      let t = fleet_of ~shards ~ids ~weights ~offsets ~lens in
      let sched = F.schedule t ~arrivals:(Array.length dests) in
      let by_name = Obs.Metrics.create () and resolved = Obs.Metrics.create () in
      let sink = F.sink resolved in
      let clocks_a = Array.make shards 0 and clocks_b = Array.make shards 0 in
      Array.iteri
        (fun i (tracee, tp) ->
          let shard = dests.(i) and at = F.arrival_time ~spacing i in
          clocks_a.(shard) <-
            Testlib.Fleet_ref.observe_trap by_name ~shard ~tracee ~at ~clock:clocks_a.(shard) tp;
          clocks_b.(shard) <- F.observe sink ~shard ~tracee ~at ~clock:clocks_b.(shard) tp)
        sched;
      let names r =
        ( List.map fst (Obs.Metrics.histogram_summaries r),
          List.map fst (Obs.Metrics.counter_values r) )
      in
      if names by_name <> names resolved then
        QCheck.Test.fail_reportf "the registries hold different names";
      if not (Obs.Metrics.equal by_name resolved) then
        QCheck.Test.fail_reportf "same names, different values";
      List.iter
        (fun (name, (s : Obs.Metrics.summary)) ->
          if s.s_count = 0 then QCheck.Test.fail_reportf "empty histogram %s" name)
        (Obs.Metrics.histogram_summaries resolved);
      clocks_a = clocks_b)

(* Random small fleets through the real pool: negative and sparse ids,
   tracees of weight 0, 1-4 shards — with more than one, no tracee is
   homed on one of them, so under [Static] it gets no arrival — both
   policies, with and without sampling, at 0.2x to 1.3x of capacity.
   Every point must agree with its serial reference, observe each
   arrival once, push one queue item per shard and, when sampled, give
   every shard one row at every boundary up to the horizon. *)
let gen_run_case =
  let open QCheck.Gen in
  let* shards = int_range 1 4 in
  let* skip = int_range 0 (shards - 1) in
  let* n = int_range 1 8 in
  let* ids = array_repeat n (oneof [ int_range (-9) (-1); int_range 0 63; int_range 64 5000 ]) in
  let ids =
    Array.map
      (fun id -> if shards > 1 && Pool.shard_of_tracee ~shards id = skip then id + 1 else id)
      ids
  in
  let* weights = array_repeat n (frequency [ (1, return 0); (3, int_range 1 9) ]) in
  let* lens = array_repeat n (int_range 1 10) in
  let* offsets = array_repeat n (int_range 0 20) in
  let* policy = oneofl Pool.all_policies in
  let* arrivals = int_range 1 150 in
  let* load = float_range 0.2 1.3 in
  let* boundaries = opt (int_range 1 8) in
  return (ids, weights, lens, offsets, shards, policy, arrivals, load, boundaries)

let print_run_case (ids, weights, _, _, shards, policy, arrivals, load, boundaries) =
  Printf.sprintf "ids [%s], weights [%s], %d shards, %s, %d arrivals at %.3fx, %s"
    (String.concat ";" (Array.to_list (Array.map string_of_int ids)))
    (String.concat ";" (Array.to_list (Array.map string_of_int weights)))
    shards (Pool.policy_name policy) arrivals load
    (match boundaries with
    | Some b -> Printf.sprintf "%d sampling boundaries" b
    | None -> "no sampling")

let prop_fleet_run_at =
  QCheck.Test.make ~count:100 ~name:"fleet point on a random fleet = its serial reference"
    (QCheck.make ~print:print_run_case gen_run_case)
    (fun (ids, weights, lens, offsets, shards, policy, arrivals, load, boundaries) ->
      let t = fleet_of ~shards ~ids ~weights ~offsets ~lens in
      let rate = load *. F.capacity t ~arrivals in
      let spacing = Workloads.Drivers_config.cycles_per_second /. rate in
      let horizon = max 1 (F.arrival_time ~spacing (arrivals - 1)) in
      let stats_interval = Option.map (fun b -> max 1 (horizon / b)) boundaries in
      let r = F.run_at ?stats_interval ~policy t ~arrivals ~rate in
      if not r.rr_matches_serial then QCheck.Test.fail_reportf "diverged from the serial reference";
      let e2e = Obs.Metrics.histogram_count (Obs.Metrics.histogram r.rr_merged "fleet.e2e") in
      if e2e <> arrivals then QCheck.Test.fail_reportf "fleet.e2e counts %d traps" e2e;
      if r.rr_queue_items <> shards then
        QCheck.Test.fail_reportf "%d queue items for %d shards" r.rr_queue_items shards;
      let rows =
        List.map (fun (row : Obs.Timeseries.row) -> (row.r_t, row.r_shard)) r.rr_stats
      in
      if List.length (List.sort_uniq compare rows) <> List.length rows then
        QCheck.Test.fail_reportf "a shard has two rows at one boundary";
      (match stats_interval with
      | None -> if rows <> [] then QCheck.Test.fail_reportf "rows without sampling"
      | Some iv ->
        for k = 1 to horizon / iv do
          for shard = 0 to shards - 1 do
            if not (List.mem (k * iv, shard) rows) then
              QCheck.Test.fail_reportf "shard %d has no row at %d" shard (k * iv)
          done
        done);
      true)

(* The constant-time histogram bucket against the bit loop: zero, the
   extremes, negatives, and 2^k - 1, 2^k and 2^k + 1 for every k up to
   61 (2^62 is past [max_int]), then random ints of every width. *)
let bucket_edges =
  [ 0; min_int; max_int; max_int - 1 ]
  @ List.concat_map
      (fun k ->
        let p = 1 lsl k in
        [ p - 1; p; p + 1; -p ])
      (List.init 62 Fun.id)

let test_bucket_edges () =
  Alcotest.(check (list int))
    "bucket at every power-of-two edge"
    (List.map Testlib.Bucket_ref.bucket_of bucket_edges)
    (List.map Obs.Metrics.bucket_of bucket_edges)

let prop_bucket_of =
  QCheck.Test.make ~count:2000 ~name:"constant-time bucket_of = the bit loop"
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         oneof
           [
             oneofl bucket_edges;
             int;
             map2 (fun width v -> v lsr width) (int_range 0 62) int;
             map Int.neg small_nat;
           ]))
    (fun v -> Obs.Metrics.bucket_of v = Testlib.Bucket_ref.bucket_of v)

(* Random operation streams against the three-array reference cache:
   keys drawn from a pool of up to 64 so slots are reused, built to
   collide on the slot index, or equal in their low 31 bits (the index
   bits) and different above them; epoch bumps interleaved; cache sizes
   that are not powers of two round up alike, and the deployed size.
   Some keys take a slot index that is a multiple of 64, so distinct
   slots also share their first entry in the occupancy table, which
   grows and rehashes as the recorded slots pile up. *)
type cache_op = Probe of int64 | Record of int64 | Bump

let gen_cache_case =
  let open QCheck.Gen in
  let* size =
    frequency [ (3, int_range 1 40); (1, return Bastion.Verdict_cache.default_size) ]
  in
  let* pool_size = int_range 1 64 in
  let* pool =
    list_repeat pool_size
      (let* low =
         frequency
           [ (2, int_range 0 (4 * size));
             ( 1,
               map2
                 (fun s m -> (64 * s mod size) + (m * size))
                 (int_range 0 63) (int_range 0 3) ) ]
       in
       let* high = oneof [ return 0L; map Int64.of_int (int_range 1 3); ui64 ] in
       (* [high] rides above the 31 index bits: keys equal in their
          low 31 bits, different in the rest. *)
       return (Int64.logor (Int64.of_int low) (Int64.shift_left high 31)))
  in
  let key = oneofl pool in
  let* ops =
    list_size (int_range 0 400)
      (frequency
         [ (5, map (fun k -> Probe k) key); (4, map (fun k -> Record k) key);
           (1, return Bump) ])
  in
  return (size, ops)

let print_cache_case (size, ops) =
  Printf.sprintf "size %d: %s" size
    (String.concat "; "
       (List.map
          (function
            | Probe k -> Printf.sprintf "probe %Lx" k
            | Record k -> Printf.sprintf "record %Lx" k
            | Bump -> "bump")
          ops))

let prop_verdict_cache_reference =
  QCheck.Test.make ~count:500 ~name:"compact verdict cache = the three-array cache"
    (QCheck.make ~print:print_cache_case gen_cache_case)
    (fun (size, ops) ->
      let module V = Bastion.Verdict_cache in
      let module R = Testlib.Verdict_cache_ref in
      let c = V.create ~size () and r = R.create ~size in
      List.iteri
        (fun i op ->
          let agree =
            match op with
            | Probe k -> V.probe c k = R.probe r k
            | Record k ->
              V.record c k;
              R.record r k;
              true
            | Bump ->
              V.bump_epoch c;
              R.bump_epoch r;
              true
          in
          if not agree then QCheck.Test.fail_reportf "op %d: probe disagrees" i)
        ops;
      V.size c = R.(r.mask + 1)
      && V.hits c = r.hits && V.misses c = r.misses && V.records c = r.records
      && V.epoch c = r.epoch)

(* --- syscall dispatch ---------------------------------------------------- *)

(* Random syscall sequences, dispatched through [Kernel.dispatch] and
   through the name-matched reference on two processes set up alike:
   files, a listening socket with queued connections, an accepted
   connection, paths in memory, optionally a filter (random rules, and
   an automaton in front of its Trace rules) whose traps reach a tracer
   with a pseudo-random verdict, and optionally an observer. *)
type dispatch_case = {
  dc_filter : (Kernel.Seccomp.action * (int * Kernel.Seccomp.action) list) option;
      (** default and rules *)
  dc_flow : Kernel.Seccomp.flow_mode option;
  dc_verdicts : int;  (** seed of the tracer's verdicts *)
  dc_observed : bool;
  dc_calls : (int * int64 array) list;
}

let dispatch_paths = [ (0x10_0000L, "/a"); (0x10_1000L, "/www/index.html"); (0x10_2000L, "/nope") ]

let table_numbers = List.map (fun (_, nr, _) -> nr) Kernel.Syscalls.table

let gen_sysno =
  QCheck.Gen.(
    frequency
      [ (12, oneofl table_numbers); (2, int_range 0 1000); (1, int_range (-50) (-1));
        (1, oneofl [ min_int; max_int; 100_000 ]) ])

let gen_dispatch_arg =
  QCheck.Gen.(
    frequency
      [ (6, map Int64.of_int (int_range 0 9)); (2, oneofl (List.map fst dispatch_paths));
        (2, map Int64.of_int (int_range 10 3000)); (2, map Int64.of_int (int_range (-2000) (-1)));
        (1, oneofl [ Int64.max_int; Int64.min_int; Int64.shift_left 1L 59; Int64.shift_left 1L 62 ]);
        (1, ui64) ])

let gen_action = QCheck.Gen.oneofl Kernel.Seccomp.[ Allow; Kill; Trace ]

let gen_dispatch_case =
  let open QCheck.Gen in
  let* dc_filter =
    opt
      (pair
         (frequency [ (4, return Kernel.Seccomp.Allow); (1, gen_action) ])
         (list_size (int_range 0 30) (pair gen_sysno gen_action)))
  in
  let* dc_flow = opt (oneofl Kernel.Seccomp.[ Flow_tiered; Flow_standalone ]) in
  let* dc_verdicts = int_range 0 3 in
  let* dc_observed = bool in
  let* dc_calls =
    list_size (int_range 0 60) (pair gen_sysno (array_size (int_range 0 7) gen_dispatch_arg))
  in
  return { dc_filter; dc_flow; dc_verdicts; dc_observed; dc_calls }

let print_dispatch_case c =
  Printf.sprintf "filter %s, flow %b, verdicts %d, observed %b: %s"
    (match c.dc_filter with
    | None -> "none"
    | Some (default, rules) ->
      Printf.sprintf "default %s [%s]" (Kernel.Seccomp.action_name default)
        (String.concat "; "
           (List.map
              (fun (nr, a) -> Printf.sprintf "%d %s" nr (Kernel.Seccomp.action_name a))
              rules)))
    (c.dc_flow <> None) c.dc_verdicts c.dc_observed
    (String.concat "; "
       (List.map
          (fun (nr, args) ->
            Printf.sprintf "%s(%s)" (Kernel.Syscalls.name nr)
              (String.concat ", " (Array.to_list (Array.map Int64.to_string args))))
          c.dc_calls))

(* One process for a case, and the list its observer appends to. *)
let dispatch_fixture c =
  let pb = Sil.Builder.program () in
  let fb = Sil.Builder.func pb "main" ~params:[] in
  Sil.Builder.halt fb;
  Sil.Builder.seal fb;
  let machine = Machine.create (Sil.Builder.build pb ~entry:"main") in
  let p = Kernel.boot machine in
  List.iter (fun (addr, s) -> ignore (Machine.Memory.write_string machine.mem addr s)) dispatch_paths;
  Kernel.Vfs.add_file p.vfs "/a" ~size_words:250;
  Kernel.Vfs.add_file p.vfs "/www/index.html" ~size_words:1000;
  Option.iter
    (fun file -> ignore (Kernel.Process.alloc_fd p (File { file; pos = 0 })))
    (Kernel.Vfs.lookup p.vfs "/a");
  ignore (Kernel.Process.alloc_fd p (Sock { port = 80 }));
  List.iter
    (fun words -> ignore (Kernel.Net.enqueue p.net 80 ~request_words:words ~payload:"GET"))
    [ 7; 0; 12; 3 ];
  Option.iter
    (fun conn -> ignore (Kernel.Process.alloc_fd p (Conn conn)))
    (Kernel.Net.accept p.net 80);
  (match c.dc_filter with
  | None -> ()
  | Some (default, rules) ->
    let f = Kernel.Seccomp.create ~default () in
    List.iter (fun (nr, a) -> Kernel.Seccomp.set_rule f nr a) rules;
    (* Every trap comes from callsite 0: one node, reached from the
       start and from itself, that resolves mprotect(_, 0 or 4096). *)
    Option.iter
      (fun mode ->
        let graph =
          Kernel.Seccomp.flow_graph
            ~nodes:
              [ { fn_rip = 0L; fn_sysno = None; fn_checks = [ (1, [ 0L; 4096L ]) ];
                  fn_resolvable = true } ]
            ~edges:[ (0L, 0L) ] ~starts:[ 0L ] ~indirect_sysnos:[ 10; 9 ]
        in
        Kernel.Seccomp.set_flow f (Some (Kernel.Seccomp.flow_create ~mode graph)))
      c.dc_flow;
    p.filter <- Some f;
    p.tracer_hook <-
      Some
        (fun p ~sysno ~args:_ ->
          if (c.dc_verdicts + sysno + p.trap_count) land 3 = 0 then
            Kernel.Process.Deny { context = "law"; detail = string_of_int sysno }
          else Kernel.Process.Continue));
  let seen = ref [] in
  if c.dc_observed then
    p.on_syscall_executed <-
      Some
        (fun ~sysno ~args ~path -> seen := (sysno, Machine.Args.to_array args, path) :: !seen);
  (p, seen)

let dispatch_outcome f =
  match f () with
  | v -> Printf.sprintf "returned %Ld" v
  | exception Machine.Killed fault -> "killed: " ^ Machine.fault_to_string fault
  | exception Machine.Program_exit v -> Printf.sprintf "exited %Ld" v

let fd_table (p : Kernel.Process.t) =
  List.sort compare
    (Hashtbl.fold
       (fun fd e acc ->
         let entry =
           match (e : Kernel.Process.fd_entry) with
           | File f -> Printf.sprintf "file %s at %d" f.file.path f.pos
           | Sock s -> Printf.sprintf "socket on %d" s.port
           | Conn c -> Printf.sprintf "connection %d" c.conn_id
         in
         (fd, entry) :: acc)
       p.fds [])

let prop_dispatch_reference =
  QCheck.Test.make ~count:300 ~name:"number-indexed dispatch = the name-matched dispatcher"
    (QCheck.make ~print:print_dispatch_case gen_dispatch_case)
    (fun c ->
      let p, seen = dispatch_fixture c in
      let q, ref_seen = dispatch_fixture c in
      let r = Testlib.Dispatch_ref.create q in
      List.iteri
        (fun i (sysno, args) ->
          let got =
            dispatch_outcome (fun () ->
                Kernel.dispatch p p.machine ~sysno ~args:(Machine.Args.of_array args))
          in
          let want = dispatch_outcome (fun () -> Testlib.Dispatch_ref.dispatch r ~sysno ~args) in
          if got <> want then QCheck.Test.fail_reportf "call %d: %s, reference %s" i got want;
          if p.machine.stats.cycles <> q.machine.stats.cycles then
            QCheck.Test.fail_reportf "call %d: %d cycles, reference %d" i p.machine.stats.cycles
              q.machine.stats.cycles)
        c.dc_calls;
      let numbers =
        List.sort_uniq compare
          ((-1) :: Kernel.Syscalls.count :: table_numbers @ List.map fst c.dc_calls)
      in
      List.iter
        (fun nr ->
          let got = Kernel.Process.syscall_count p nr
          and want = Testlib.Dispatch_ref.syscall_count r nr in
          if got <> want then
            QCheck.Test.fail_reportf "syscall_count %d: %d, reference %d" nr got want)
        numbers;
      let exec_log (p : Kernel.Process.t) =
        List.map (fun (e : Kernel.Process.exec_event) -> (e.ev_sysno, e.ev_args, e.ev_path)) p.exec_log
      in
      let state (p : Kernel.Process.t) =
        ( (fd_table p, p.next_fd, p.next_pid, List.length p.children),
          (p.io_words_in, p.io_words_out, p.uid, p.gid, p.machine.brk),
          (p.trap_count, p.serve_start_cycles) )
      in
      if state p <> state q then QCheck.Test.fail_reportf "process state differs";
      if exec_log p <> exec_log q then QCheck.Test.fail_reportf "exec_log differs";
      if !seen <> !ref_seen then QCheck.Test.fail_reportf "the observer saw different calls";
      true)

let prop_dispatch_cycles_nonnegative =
  QCheck.Test.make ~count:300 ~name:"no dispatch charges negative cycles"
    (QCheck.make ~print:print_dispatch_case gen_dispatch_case)
    (fun c ->
      let p, _ = dispatch_fixture c in
      List.iteri
        (fun i (sysno, args) ->
          let before = p.machine.stats.cycles in
          ignore
            (dispatch_outcome (fun () ->
                 Kernel.dispatch p p.machine ~sysno ~args:(Machine.Args.of_array args)));
          if p.machine.stats.cycles < before then
            QCheck.Test.fail_reportf "call %d (%s) charged %d cycles" i (Kernel.Syscalls.name sysno)
              (p.machine.stats.cycles - before))
        c.dc_calls;
      true)

(* The byte-per-number rule table against the hash table it replaced,
   over numbers inside and outside the syscall table's range, and
   across a copy that is then changed. *)
let prop_seccomp_rules =
  QCheck.Test.make ~count:300 ~name:"seccomp rules = a hash table of rules"
    QCheck.(
      make
        Gen.(
          triple gen_action
            (list_size (int_range 0 40) (pair gen_sysno gen_action))
            (list_size (int_range 0 10) (pair gen_sysno gen_action))))
    (fun (default, rules, later) ->
      let f = Kernel.Seccomp.create ~default () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (nr, a) ->
          Kernel.Seccomp.set_rule f nr a;
          Hashtbl.replace model nr a)
        rules;
      let g = Kernel.Seccomp.copy f and copied = Hashtbl.copy model in
      List.iter
        (fun (nr, a) ->
          Kernel.Seccomp.set_rule g nr a;
          Hashtbl.replace copied nr a)
        later;
      let agrees f model nr =
        Kernel.Seccomp.rule f nr = Option.value ~default (Hashtbl.find_opt model nr)
      in
      List.for_all
        (fun nr -> agrees f model nr && agrees g copied nr)
        ((-1) :: Kernel.Syscalls.count :: table_numbers @ List.map fst (rules @ later)))

let suites =
  [
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_shadow_model;
          prop_shadow_growth;
          prop_shadow_insert_roundtrip;
          prop_shadow_reference;
          prop_binding_key_injective;
          prop_binding_keys_disjoint;
          prop_memory_roundtrip;
          prop_memory_model;
          prop_string_roundtrip;
          prop_binop_comparisons;
          prop_binop_algebra;
          prop_counted_loop;
          prop_layout_injective;
          prop_allowlist;
          prop_array_sizes;
          prop_swrr_period;
          prop_plan_one_table;
          prop_fleet_registry;
          prop_verdict_cache_reference;
        ]
      @ [
          Alcotest.test_case "SWRR by period on the benchmark's 64-tracee fleet" `Quick
            test_swrr_period_bench_shape;
        ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_dispatch_reference; prop_dispatch_cycles_nonnegative; prop_seccomp_rules ]
      @ [ Alcotest.test_case "bucket_of at every power-of-two edge" `Quick test_bucket_edges ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_bucket_of; prop_fleet_run_at ] );
  ]
