(* The metrics registry: named counters, sampled probes, and log-scaled
   latency histograms with percentile summaries.

   Three kinds of instruments share one namespace:

   - counters: integers owned by the registry, bumped by the recorder's
     hot-path hooks (a field increment — this is all the disabled path
     costs);
   - probes: read-only callbacks over counters that already live
     elsewhere (Ptrace.calls_made, Verdict_cache hits/misses, the
     shadow-table probe statistics, Monitor.traps_checked ...).  The
     legacy accessors stay authoritative; the registry samples them at
     snapshot time, so the two can never disagree;
   - histograms: power-of-two buckets over non-negative integer
     observations (modelled cycles, words, depths), summarised as
     count/min/max/mean and interpolated p50/p90/p99/p99.9.

   Domain safety: a registry is single-owner — nothing here takes a
   lock, so two domains must never mutate the same registry.  The
   {!Shards} wrapper below hands each domain its own registry and
   {!merge} combines them deterministically at join (all state is
   integer-valued, so merging is exact, associative and commutative;
   the qcheck suite states these as laws). *)

type counter = { c_name : string; mutable c_value : int }

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

(* Bucket [b] holds observations in [2^(b-1), 2^b) (bucket 0: value 0),
   so 64 buckets cover the whole non-negative int range. *)
let histogram_buckets = 64

type histogram = {
  h_name : string;
  h_counts : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

(* The bucket is the bit length of [v], found by six shift-and-test
   steps instead of one loop iteration per bit.  A positive OCaml int
   has at most 62 bits, so the top bucket is never reached. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let v = ref v and b = ref 1 in
    if !v lsr 32 <> 0 then (v := !v lsr 32; b := !b + 32);
    if !v lsr 16 <> 0 then (v := !v lsr 16; b := !b + 16);
    if !v lsr 8 <> 0 then (v := !v lsr 8; b := !b + 8);
    if !v lsr 4 <> 0 then (v := !v lsr 4; b := !b + 4);
    if !v lsr 2 <> 0 then (v := !v lsr 2; b := !b + 2);
    if !v lsr 1 <> 0 then b := !b + 1;
    !b
  end

let observe h v =
  let v = Int.max 0 v in
  let b = bucket_of v in
  h.h_counts.(b) <- h.h_counts.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let histogram_count h = h.h_count
let histogram_min h = if h.h_count = 0 then 0 else h.h_min
let histogram_max h = if h.h_count = 0 then 0 else h.h_max

let histogram_mean h =
  if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count

(** Interpolated percentile [p] (in [0,1]) of the observations.

    The rank is monotone in [p] and the estimate is monotone in the
    rank: bucket order first, then linear interpolation *within* the
    located bucket.  The interpolation range is the bucket's span
    tightened by the observed min/max — a no-op for interior buckets,
    but in the top (bottom) occupied bucket it pulls the upper (lower)
    edge in to the largest (smallest) value actually seen, so a p99.9
    that lands mid-bucket is estimated inside the tail instead of being
    clamped flat to the global max.  Monotonicity across buckets holds
    because a bucket's tightened upper edge (≤ 2^b − 1) stays below the
    next occupied bucket's tightened lower edge (≥ 2^b). *)
let percentile h p =
  if h.h_count = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 1.0 p) in
    let rank = Float.max 1.0 (Float.round (p *. float_of_int h.h_count)) in
    let rec locate b cum =
      if b >= histogram_buckets then (histogram_buckets - 1, cum)
      else
        let cum' = cum + h.h_counts.(b) in
        if float_of_int cum' >= rank then (b, cum) else locate (b + 1) cum'
    in
    let b, before = locate 0 0 in
    let bucket_lo = if b = 0 then 0 else 1 lsl (b - 1) in
    let bucket_hi = if b = 0 then 0 else (1 lsl b) - 1 in
    let lo = Float.of_int (max bucket_lo (histogram_min h)) in
    let hi = Float.of_int (min bucket_hi (histogram_max h)) in
    let in_bucket = float_of_int h.h_counts.(b) in
    let frac = if in_bucket <= 1.0 then 1.0 else (rank -. float_of_int before) /. in_bucket in
    lo +. (frac *. (hi -. lo))
  end

type summary = {
  s_count : int;
  s_min : int;
  s_max : int;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
}

let summarize h =
  {
    s_count = histogram_count h;
    s_min = histogram_min h;
    s_max = histogram_max h;
    s_mean = histogram_mean h;
    s_p50 = percentile h 0.50;
    s_p90 = percentile h 0.90;
    s_p99 = percentile h 0.99;
    s_p999 = percentile h 0.999;
  }

(* --- the registry ----------------------------------------------------- *)

type t = {
  counters : (string, counter) Hashtbl.t;
  probes : (string, unit -> float) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; probes = Hashtbl.create 32; histograms = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.counters name c;
    c

(** Register (or replace) a sampled probe over an external counter. *)
let register_probe t name fn = Hashtbl.replace t.probes name fn

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h =
      { h_name = name; h_counts = Array.make histogram_buckets 0; h_count = 0;
        h_sum = 0; h_min = max_int; h_max = 0 }
    in
    Hashtbl.replace t.histograms name h;
    h

let sorted_bindings tbl =
  List.sort (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* --- merging shard registries ----------------------------------------- *)

(** Fold [src]'s histogram into [dst] bucket-wise.  All fields are
    integer-valued, so the fold is exact: order of merging never
    changes the result. *)
let merge_histogram_into dst src =
  Array.iteri (fun b n -> dst.h_counts.(b) <- dst.h_counts.(b) + n) src.h_counts;
  dst.h_count <- dst.h_count + src.h_count;
  dst.h_sum <- dst.h_sum + src.h_sum;
  if src.h_count > 0 then begin
    if src.h_min < dst.h_min then dst.h_min <- src.h_min;
    if src.h_max > dst.h_max then dst.h_max <- src.h_max
  end

(** Add every owned counter and histogram of [src] into [into].
    Probes are deliberately *not* merged: they sample process-global
    legacy accessors, so copying them across registries would double
    count.  Register probes on the merged registry explicitly if they
    are wanted there. *)
let merge_into ~into src =
  List.iter (fun (name, c) -> add (counter into name) c.c_value)
    (sorted_bindings src.counters);
  List.iter (fun (name, h) -> merge_histogram_into (histogram into name) h)
    (sorted_bindings src.histograms)

(** Merge shard registries into a fresh registry.  Deterministic:
    integer sums and bucket-wise adds make the result independent of
    list order (the qcheck laws assert commutativity/associativity). *)
let merge regs =
  let out = create () in
  List.iter (fun r -> merge_into ~into:out r) regs;
  out

(** Structural equality over owned state: counter values and full
    histogram state (bucket counts, count, sum, min, max).  Probes are
    excluded — they are callbacks, not state. *)
let equal a b =
  let counters r =
    List.map (fun (k, c) -> (k, c.c_value)) (sorted_bindings r.counters)
  in
  let histos r =
    List.map
      (fun (k, h) ->
        (k, (Array.to_list h.h_counts, h.h_count, h.h_sum, h.h_min, h.h_max)))
      (sorted_bindings r.histograms)
  in
  counters a = counters b && histos a = histos b

(* --- per-domain shard registries -------------------------------------- *)

(** One registry per recording domain.  [my] hands the calling domain
    its own registry (creating it under the lock on first call — cache
    the result in the worker loop rather than calling per-event);
    mutation is then lock-free and single-owner.  [merged] combines all
    shards with {!merge}. *)
module Shards = struct
  type registry = t

  let create_registry : unit -> registry = create

  type t = {
    lock : Mutex.t;
    mutable shards : (int * registry) list;  (* domain id -> registry *)
  }

  let create () = { lock = Mutex.create (); shards = [] }

  (** The calling domain's registry (created on first call). *)
  let my t =
    let id = (Domain.self () :> int) in
    Mutex.protect t.lock (fun () ->
        match List.assoc_opt id t.shards with
        | Some r -> r
        | None ->
          let r = create_registry () in
          t.shards <- (id, r) :: t.shards;
          r)

  (** All shard registries, sorted by domain id (deterministic order). *)
  let registries t =
    Mutex.protect t.lock (fun () ->
        List.map snd
          (List.sort (fun (a, _) (b, _) -> compare a b) t.shards))

  let merged t = merge (registries t)
end

(** All counter values, owned and probed, sorted by name. *)
let counter_values t : (string * float) list =
  let owned = List.map (fun (k, c) -> (k, float_of_int c.c_value)) (sorted_bindings t.counters) in
  let probed = List.map (fun (k, fn) -> (k, fn ())) (sorted_bindings t.probes) in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (owned @ probed)

(** All histogram summaries, sorted by name. *)
let histogram_summaries t : (string * summary) list =
  List.map (fun (k, h) -> (k, summarize h)) (sorted_bindings t.histograms)

let to_json t : Report.Json.t =
  let open Report.Json in
  let counters = List.map (fun (k, v) -> (k, Num v)) (counter_values t) in
  let histos =
    List.map
      (fun (k, s) ->
        ( k,
          Obj
            [
              ("count", Num (float_of_int s.s_count));
              ("min", Num (float_of_int s.s_min));
              ("max", Num (float_of_int s.s_max));
              ("mean", Num s.s_mean);
              ("p50", Num s.s_p50);
              ("p90", Num s.s_p90);
              ("p99", Num s.s_p99);
              ("p999", Num s.s_p999);
            ] ))
      (histogram_summaries t)
  in
  Obj [ ("counters", Obj counters); ("histograms", Obj histos) ]

(** The end-of-run text summary (counters, then histogram percentiles),
    rendered with {!Report.Table}. *)
let summary_table t : string =
  let counters =
    Report.Table.render ~align:[ Report.Table.L; Report.Table.R ]
      ~header:[ "counter"; "value" ]
      (List.map
         (fun (k, v) ->
           [ k; (if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.4f" v) ])
         (counter_values t))
  in
  match histogram_summaries t with
  | [] -> counters
  | histos ->
    let h =
      Report.Table.render
        ~align:Report.Table.[ L; R; R; R; R; R; R; R; R ]
        ~header:[ "histogram"; "count"; "min"; "p50"; "p90"; "p99"; "p99.9"; "max"; "mean" ]
        (List.map
           (fun (k, s) ->
             [
               k;
               string_of_int s.s_count;
               string_of_int s.s_min;
               Printf.sprintf "%.0f" s.s_p50;
               Printf.sprintf "%.0f" s.s_p90;
               Printf.sprintf "%.0f" s.s_p99;
               Printf.sprintf "%.0f" s.s_p999;
               string_of_int s.s_max;
               Printf.sprintf "%.1f" s.s_mean;
             ])
           histos)
    in
    counters ^ "\n\n" ^ h
