(** The metrics registry: named counters (owned, bumped on the hot
    path), sampled probes (read-only callbacks over counters that live
    elsewhere — the legacy accessors stay authoritative and the
    registry samples them at snapshot time), and log-scaled histograms
    with p50/p90/p99/p99.9 summaries.

    A registry is single-owner: nothing here locks, so two domains
    must never mutate the same registry.  {!Shards} hands each domain
    its own registry; {!merge} combines them exactly (all histogram
    state is integer-valued, so merging is deterministic, associative
    and commutative). *)

type counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

type histogram

(** Number of power-of-two buckets; bucket [b] holds [2^(b-1), 2^b). *)
val histogram_buckets : int

(** The bucket an observation lands in: [0] for [v <= 0], else the bit
    length of [v].  Constant time. *)
val bucket_of : int -> int

(** Record one non-negative integer observation (negatives clamp to 0). *)
val observe : histogram -> int -> unit

val histogram_count : histogram -> int
val histogram_min : histogram -> int
val histogram_max : histogram -> int

(** Interpolated percentile of [p] in [0,1]: monotone in [p], bounded
    by the observed [min, max], and interpolated *within* the located
    bucket (the bucket span tightened by the observed extrema), so
    tail percentiles are estimated inside the top occupied bucket
    instead of clamping flat to the max. *)
val percentile : histogram -> float -> float

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

val summarize : histogram -> summary

type t

val create : unit -> t

(** Find-or-create the named counter. *)
val counter : t -> string -> counter

(** Register (or replace) a sampled probe over an external counter. *)
val register_probe : t -> string -> (unit -> float) -> unit

(** Find-or-create the named histogram. *)
val histogram : t -> string -> histogram

(** Merge shard registries into a fresh registry.  Exact and
    order-independent: integer sums and bucket-wise adds only.  Probes
    are deliberately not merged — they sample process-global
    accessors, so copying them across registries would double count. *)
val merge : t list -> t

(** Structural equality over owned state (counter values and full
    histogram state); probes are excluded. *)
val equal : t -> t -> bool

(** One registry per recording domain: [my] hands the calling domain
    its own registry (created under a lock on first call — cache the
    result in the worker loop), after which mutation is lock-free and
    single-owner.  [merged] combines all shards with {!merge}. *)
module Shards : sig
  type registry = t
  type t

  val create : unit -> t

  (** The calling domain's registry (created on first call). *)
  val my : t -> registry

  (** All shard registries, sorted by domain id (deterministic). *)
  val registries : t -> registry list

  val merged : t -> registry
end

(** All counter values (owned and probed), sorted by name; probes are
    sampled at call time. *)
val counter_values : t -> (string * float) list

val histogram_summaries : t -> (string * summary) list

val to_json : t -> Report.Json.t

(** End-of-run text summary rendered with {!Report.Table}. *)
val summary_table : t -> string
