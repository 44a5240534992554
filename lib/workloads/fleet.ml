(* The open-loop fleet driver: a constant-rate arrival process over K
   heterogeneous modelled tracees, served by the sharded monitor pool.

   Closed-loop benches (run_multi, the throughput bench) measure how
   fast the monitor *can* go: the next trap arrives when the previous
   one finishes, so queues never build and tails never show.  A fleet
   serving real traffic is open-loop — traps arrive when tracees make
   syscalls, at a rate the monitor does not control — and the quantity
   that matters is what a trap *experiences* end-to-end: queue wait
   plus service, against offered load.  This module builds that
   measurement:

   - service profiles are harvested from real monitored runs (the
     models' [small] parameter sets under CET+CT+CF+AI), one recorded
     event per trap decomposed into snapshot / CT / CF / AI modelled
     cycles, plus the seccomp-stage pre-filter evaluation every trap
     pays before reaching the monitor;
   - the fleet mixes the three applications round-robin with skewed
     per-tracee trap rates (smooth weighted round-robin over 16:8:5:
     4:3:2:2:2 weights), so shards are genuinely unequal;
   - arrivals are deterministic on the modelled clock: arrival [i]
     lands at [i * cps/rate] cycles, independent of service rate —
     offered load is a knob, not an outcome;
   - the sharded run drives real worker domains through the real
     bounded trap queues (one item per run of consecutive arrivals
     bound for one shard), but all latency math runs on per-shard
     *virtual clocks* in modelled cycles from each trap's own arrival
     time, so the measured waits are deterministic and a serial
     reference simulation must agree exactly: the per-domain shard
     registries ([Metrics.Shards]) merged at join are required to
     [Metrics.equal] the serial registry (asserted per sweep point and
     by the qcheck laws).

   The sweep fixes the arrival *schedule* (rate only scales spacing),
   so total busy cycles are load-independent and the saturation point
   is computable: [capacity] is the rate at which the *mean* shard
   utilisation reaches 1 — the ideal aggregate capacity a perfectly
   balanced pool could reach.  A static fleet hits its bottleneck
   shard's limit well below that (the [capacity_bottleneck] rate);
   the scheduler ablation measures how much of the gap work stealing
   recovers.  Points past a policy's own saturation let queues grow
   without bound — the p99/p99.9 blow-up the knee detector looks
   for.

   Placement runs through the pool's deterministic virtual-clock
   [Pool.Plan], fed in arrival order with the same arrivals and service
   costs on the sharded and serial paths, so the merged shard
   registries still [Metrics.equal] the serial reference exactly: a
   stolen trap needs no state handoff — each trap's observation is a
   pure function of its arrival, its profile entry and the destination
   shard's clock. *)

module Pool = Bastion_mt.Monitor_pool
module Queue_ = Bastion_mt.Trap_queue

(* ------------------------------------------------------------------ *)
(* Service profiles                                                    *)

(** One trap's service decomposition, modelled cycles per span. *)
type trap_profile = {
  tp_prefilter : int;  (** seccomp-stage flow-automaton evaluation *)
  tp_snapshot : int;   (** state fetch: trap dur minus the phase spans *)
  tp_ct : int;
  tp_cf : int;
  tp_ai : int;
}

let service tp = tp.tp_prefilter + tp.tp_snapshot + tp.tp_ct + tp.tp_cf + tp.tp_ai

(** The fleet's application mix: the three models at their [small]
    scale (the golden-corpus parameter sets). *)
let small_apps () =
  [
    ("nginx", Drivers.nginx ~params:Nginx_model.small ());
    ("sqlite", Drivers.sqlite ~params:Sqlite_model.small ());
    ("vsftpd", Drivers.vsftpd ~params:Vsftpd_model.small ());
  ]

(** Harvest an app's per-trap service profile from one recorded run
    under the full defense: each event's duration decomposed into its
    phase spans (cached phases charged 0, like the monitor), the
    remainder attributed to the snapshot fetch, plus the constant
    pre-filter evaluation every trap pays at the seccomp stage. *)
let harvest_profile (app : Drivers.app) : trap_profile array =
  let recorder = Obs.Recorder.create ~tracing:true () in
  ignore (Drivers.run ~recorder app Drivers.Bastion_full);
  let prefilter = Machine.Cost.default.Machine.Cost.prefilter_eval in
  let events = Obs.Recorder.trap_events recorder in
  let profiles =
    List.map
      (fun (ev : Obs.Event.t) ->
        let phase p =
          List.fold_left
            (fun acc (sp : Obs.Event.span) ->
              if sp.sp_phase = p then acc + sp.sp_dur else acc)
            0 ev.ev_spans
        in
        let ct = phase Obs.Event.Ct in
        let cf = phase Obs.Event.Cf in
        let ai = phase Obs.Event.Ai in
        {
          tp_prefilter = prefilter;
          tp_snapshot = max 0 (ev.ev_dur - ct - cf - ai);
          tp_ct = ct;
          tp_cf = cf;
          tp_ai = ai;
        })
      events
  in
  match profiles with
  | [] -> invalid_arg "Fleet.harvest_profile: run recorded no traps"
  | ps -> Array.of_list ps

(* ------------------------------------------------------------------ *)
(* The fleet                                                           *)

type tracee_spec = {
  ts_id : int;
  ts_app : string;
  ts_weight : int;          (** relative trap rate (SWRR weight) *)
  ts_profile : trap_profile array;
  ts_offset : int;          (** starting cursor into the profile *)
}

type t = { f_tracees : tracee_spec array; f_shards : int }

(* Skewed trap rates: tracee k mod 8 = 0 fires 16/2 = 8x as often as
   the quietest — heavy hitters land on every shard, but unevenly. *)
let weight_of k = max 1 (16 / (1 + (k mod 8)))

(** Assemble a fleet: [tracees] heterogeneous tracees cycling through
    the application mix, each with a skewed weight and its own phase
    offset into its app's service profile. *)
let build ~tracees ~shards =
  if tracees < 1 then invalid_arg "Fleet.build: tracees must be >= 1";
  if shards < 1 then invalid_arg "Fleet.build: shards must be >= 1";
  let apps = small_apps () in
  let profiles =
    List.map (fun (name, app) -> (name, harvest_profile app)) apps
  in
  let f_tracees =
    Array.init tracees (fun k ->
        let name, profile = List.nth profiles (k mod List.length profiles) in
        {
          ts_id = k;
          ts_app = name;
          ts_weight = weight_of k;
          ts_profile = profile;
          ts_offset = k * 13 mod Array.length profile;
        })
  in
  { f_tracees; f_shards = shards }

(* ------------------------------------------------------------------ *)
(* The arrival schedule                                                *)

(* Smooth weighted round-robin: deterministic, and spreads each
   tracee's arrivals evenly through the stream (no bursts the weights
   don't call for).  The schedule — which tracee fires trap [i], and
   with which service profile entry — depends only on the fleet, never
   on the offered rate: rate scales arrival *spacing* alone.

   [swrr_picks] is the loop itself: each pick adds every weight to its
   tracee's counter and takes [total] from the largest (the first on
   ties).  It returns [count] picks as indices into [f_tracees], and
   the counters after them. *)
let swrr_picks (t : t) ~total count =
  let n = Array.length t.f_tracees in
  let current = Array.make n 0 in
  let picks =
    Array.init count (fun _ ->
        Array.iteri (fun k ts -> current.(k) <- current.(k) + ts.ts_weight) t.f_tracees;
        let best = ref 0 in
        for k = 1 to n - 1 do
          if current.(k) > current.(!best) then best := k
        done;
        current.(!best) <- current.(!best) - total;
        !best)
  in
  (picks, current)

(* The counters are SWRR's whole state, so once they are back at zero
   the picks repeat.  With no negative weight that happens after
   exactly [total] picks, each tracee having fired its weight; the
   schedule computes that one period, checks that the counters did
   return, and indexes it.  A negative weight never returns (its
   tracee would have to fire fewer than zero times), so such fleets,
   fleets whose total is not positive, and schedules no longer than
   one period run the per-arrival loop. *)
let schedule (t : t) ~arrivals =
  let total = Array.fold_left (fun acc ts -> acc + ts.ts_weight) 0 t.f_tracees in
  let direct () = fst (swrr_picks t ~total arrivals) in
  let picks =
    if total <= 0 || total >= arrivals then direct ()
    else
      let period, current = swrr_picks t ~total total in
      if Array.for_all (fun c -> c = 0) current then
        Array.init arrivals (fun i -> period.(i mod total))
      else direct ()
  in
  let fired = Array.make (Array.length t.f_tracees) 0 in
  Array.map
    (fun k ->
      let ts = t.f_tracees.(k) in
      let idx = (ts.ts_offset + fired.(k)) mod Array.length ts.ts_profile in
      fired.(k) <- fired.(k) + 1;
      (ts.ts_id, ts.ts_profile.(idx)))
    picks

(** Per-shard busy cycles of a schedule: load-independent, so the
    saturation rate is computable before any simulation. *)
let busy_cycles (t : t) sched =
  let busy = Array.make t.f_shards 0 in
  Array.iter
    (fun (tracee, tp) ->
      let s = Pool.shard_of_tracee ~shards:t.f_shards tracee in
      busy.(s) <- busy.(s) + service tp)
    sched;
  busy

(** The ideal aggregate capacity: the offered rate (traps/second on
    the modelled clock) at which the *mean* shard utilisation reaches
    1.0 — what a perfectly balanced pool could sustain.  Independent of
    placement (total service is), so every scheduler arm of an
    ablation is measured against the same yardstick. *)
let capacity (t : t) ~arrivals =
  let sched = schedule t ~arrivals in
  let total_busy =
    max 1 (Array.fold_left (fun acc (_, tp) -> acc + service tp) 0 sched)
  in
  float_of_int arrivals *. Drivers_config.cycles_per_second
  *. float_of_int t.f_shards /. float_of_int total_busy

(** The static fleet's analytic saturation point: the rate at which
    the busiest statically-pinned shard's utilisation reaches 1.0.
    Always <= {!capacity}; the ratio is the price of imbalance. *)
let capacity_bottleneck (t : t) ~arrivals =
  let sched = schedule t ~arrivals in
  let max_busy = Array.fold_left max 1 (busy_cycles t sched) in
  float_of_int arrivals *. Drivers_config.cycles_per_second /. float_of_int max_busy

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)

(* The instruments a trap is observed into, each resolved by name
   once per registry: the eight global histograms and [fleet.traps] on
   the first trap, a shard's two histograms and two counters and a
   tracee's e2e histogram on the first trap that touches them — so a
   registry holds exactly the names its traps touched.  Shards and
   tracees are keyed by id, which need not be dense. *)
module Itbl = Hashtbl.Make (Int)

type globals = {
  g_wait : Obs.Metrics.histogram;
  g_service : Obs.Metrics.histogram;
  g_e2e : Obs.Metrics.histogram;
  g_prefilter : Obs.Metrics.histogram;
  g_snapshot : Obs.Metrics.histogram;
  g_ct : Obs.Metrics.histogram;
  g_cf : Obs.Metrics.histogram;
  g_ai : Obs.Metrics.histogram;
  g_traps : Obs.Metrics.counter;
}

type shard_instruments = {
  si_wait : Obs.Metrics.histogram;
  si_e2e : Obs.Metrics.histogram;
  si_traps : Obs.Metrics.counter;
  si_busy : Obs.Metrics.counter;
}

type sink = {
  reg : Obs.Metrics.t;
  mutable globals : globals option;
  shards : shard_instruments Itbl.t;
  tracees : Obs.Metrics.histogram Itbl.t;
}

let sink reg = { reg; globals = None; shards = Itbl.create 8; tracees = Itbl.create 16 }

let globals s =
  match s.globals with
  | Some g -> g
  | None ->
    let h = Obs.Metrics.histogram s.reg in
    let g =
      {
        g_wait = h "fleet.queue_wait";
        g_service = h "fleet.service";
        g_e2e = h "fleet.e2e";
        g_prefilter = h "fleet.phase.prefilter";
        g_snapshot = h "fleet.phase.snapshot";
        g_ct = h "fleet.phase.ct";
        g_cf = h "fleet.phase.cf";
        g_ai = h "fleet.phase.ai";
        g_traps = Obs.Metrics.counter s.reg "fleet.traps";
      }
    in
    s.globals <- Some g;
    g

let shard_instruments s shard =
  match Itbl.find s.shards shard with
  | si -> si
  | exception Not_found ->
    let name field = Printf.sprintf "fleet.shard%d.%s" shard field in
    let si =
      {
        si_wait = Obs.Metrics.histogram s.reg (name "queue_wait");
        si_e2e = Obs.Metrics.histogram s.reg (name "e2e");
        si_traps = Obs.Metrics.counter s.reg (name "traps");
        si_busy = Obs.Metrics.counter s.reg (name "busy_cycles");
      }
    in
    Itbl.add s.shards shard si;
    si

let tracee_e2e s tracee =
  match Itbl.find s.tracees tracee with
  | h -> h
  | exception Not_found ->
    let h = Obs.Metrics.histogram s.reg (Printf.sprintf "fleet.tracee%d.e2e" tracee) in
    Itbl.add s.tracees tracee h;
    h

(* One trap through one shard's virtual clock; every observation is an
   integer in modelled cycles, so the sharded and serial paths cannot
   diverge by rounding. *)
let observe s ~shard ~tracee ~at ~clock tp =
  let svc = service tp in
  let start = Int.max at clock in
  let wait = start - at in
  let finish = start + svc in
  let e2e = finish - at in
  let g = globals s and si = shard_instruments s shard in
  Obs.Metrics.observe g.g_wait wait;
  Obs.Metrics.observe g.g_service svc;
  Obs.Metrics.observe g.g_e2e e2e;
  Obs.Metrics.observe g.g_prefilter tp.tp_prefilter;
  Obs.Metrics.observe g.g_snapshot tp.tp_snapshot;
  Obs.Metrics.observe g.g_ct tp.tp_ct;
  Obs.Metrics.observe g.g_cf tp.tp_cf;
  Obs.Metrics.observe g.g_ai tp.tp_ai;
  Obs.Metrics.observe si.si_wait wait;
  Obs.Metrics.observe si.si_e2e e2e;
  Obs.Metrics.observe (tracee_e2e s tracee) e2e;
  Obs.Metrics.incr g.g_traps;
  Obs.Metrics.incr si.si_traps;
  Obs.Metrics.add si.si_busy svc;
  finish

(** {!observe} into [reg], resolving every instrument for this trap. *)
let observe_trap reg ~shard ~tracee ~at ~clock tp =
  observe (sink reg) ~shard ~tracee ~at ~clock tp

(* Arrival times: trap [i] lands at [i * cps/rate] cycles.  The float
   product is exact enough (< 2^53) and identical on both paths. *)
let arrival_time ~spacing i = int_of_float (float_of_int i *. spacing)

(* Route a whole schedule through one deterministic plan in arrival
   order: [dests.(i)] is trap [i]'s shard under the policy.  Both the
   sharded feeder and the serial reference call this with identical
   inputs, so they place every trap identically. *)
let plan_schedule ~policy (t : t) sched ~spacing =
  let plan = Pool.Plan.create ~policy ~shards:t.f_shards () in
  let dests =
    Array.mapi
      (fun i (tracee, tp) ->
        Pool.Plan.route plan ~tracee ~at:(arrival_time ~spacing i) ~service:(service tp))
      sched
  in
  (plan, dests)

(** The serial reference: the same per-shard virtual-clock math run
    inline over one registry, in arrival order, with placement from an
    identical plan. *)
let simulate_serial ?(policy = Pool.Static) (t : t) sched ~spacing :
    Obs.Metrics.t =
  let reg = Obs.Metrics.create () in
  let sink = sink reg in
  let clocks = Array.make t.f_shards 0 in
  let _, dests = plan_schedule ~policy t sched ~spacing in
  Array.iteri
    (fun i (tracee, tp) ->
      let shard = dests.(i) in
      let at = arrival_time ~spacing i in
      clocks.(shard) <- observe sink ~shard ~tracee ~at ~clock:clocks.(shard) tp)
    sched;
  reg

type run_result = {
  rr_policy : Pool.policy;    (** placement policy of this run *)
  rr_rate : float;            (** offered traps/second *)
  rr_horizon : int;           (** cycles spanned by the arrival process *)
  rr_merged : Obs.Metrics.t;  (** shard registries, merged at join *)
  rr_matches_serial : bool;   (** merged = serial reference, exactly *)
  rr_shard_util : float array;   (** busy / horizon per shard, as placed *)
  rr_steals : int;            (** plan-level steals ([Steal] only) *)
  rr_migrations : int;        (** plan-level claim moves *)
  rr_stats : Obs.Timeseries.row list;  (** when sampling was on *)
}

(** Drive the schedule through the real sharded pool at [rate] traps
    per second under [policy] (default static).  Workers record into
    their domain's registry ([Metrics.Shards]); [stats_interval]
    (cycles) additionally samples a per-shard time-series row at every
    virtual-clock boundary. *)
let run_at ?stats_interval ?(policy = Pool.Static) (t : t) ~arrivals ~rate :
    run_result =
  if rate <= 0.0 then invalid_arg "Fleet.run_at: rate must be positive";
  let sched = schedule t ~arrivals in
  let spacing = Drivers_config.cycles_per_second /. rate in
  let horizon = max 1 (arrival_time ~spacing (arrivals - 1)) in
  let shards_reg = Obs.Metrics.Shards.create () in
  let config = Pool.config ~policy ~shards:t.f_shards () in
  let plan, dests = plan_schedule ~policy t sched ~spacing in
  (* One queue item per run of up to [batch] consecutive arrivals bound
     for one shard: [(shard, (first, stop))] carries arrivals [first]
     to [stop - 1].  The runs are cut here, where every destination is
     known in advance, so the queue lock is taken once per run. *)
  let runs =
    Seq.unfold
      (fun first ->
        if first >= arrivals then None
        else begin
          let shard = dests.(first) in
          let stop = ref (first + 1) in
          while
            !stop < arrivals && !stop - first < config.Pool.batch && dests.(!stop) = shard
          do
            incr stop
          done;
          Some ((shard, (first, !stop)), !stop)
        end)
      0
  in
  let route (shard, _) = shard in
  let worker ~shard queue =
    let sink = sink (Obs.Metrics.Shards.my shards_reg) in
    let stats = Obs.Timeseries.create () in
    let clock = ref 0 in
    let next_sample = ref (match stats_interval with Some iv -> iv | None -> max_int) in
    let sample upto =
      match stats_interval with
      | None -> ()
      | Some iv ->
        while !next_sample <= upto do
          let si = shard_instruments sink shard in
          let wait = Obs.Metrics.summarize si.si_wait in
          let e2e = Obs.Metrics.summarize si.si_e2e in
          Obs.Timeseries.push stats ~at:!next_sample ~shard
            [
              ("traps", float_of_int (Obs.Metrics.value si.si_traps));
              ("busy_cycles", float_of_int (Obs.Metrics.value si.si_busy));
              ("queue_wait_p50", wait.Obs.Metrics.s_p50);
              ("queue_wait_p99", wait.Obs.Metrics.s_p99);
              ("queue_wait_p999", wait.Obs.Metrics.s_p999);
              ("e2e_p99", e2e.Obs.Metrics.s_p99);
            ];
          next_sample := !next_sample + iv
        done
    in
    (* Each trap is observed at its own arrival time. *)
    let rec drain () =
      match Queue_.pop_batch queue ~max:config.Pool.batch with
      | [] -> sample (Int.max !clock horizon)
      | batch ->
        List.iter
          (fun (_, (first, stop)) ->
            for i = first to stop - 1 do
              let tracee, tp = sched.(i) in
              clock :=
                observe sink ~shard ~tracee ~at:(arrival_time ~spacing i) ~clock:!clock tp;
              sample !clock
            done)
          batch;
        drain ()
    in
    drain ();
    stats
  in
  let stats_accs, _queue_stats =
    Pool.with_pool ~route config ~items:runs ~worker
  in
  let merged = Obs.Metrics.Shards.merged shards_reg in
  let serial = simulate_serial ~policy t sched ~spacing in
  let busy = Pool.Plan.busy_per_shard plan in
  {
    rr_policy = policy;
    rr_rate = rate;
    rr_horizon = horizon;
    rr_merged = merged;
    rr_matches_serial = Obs.Metrics.equal merged serial;
    rr_shard_util =
      Array.map (fun b -> float_of_int b /. float_of_int horizon) busy;
    rr_steals = Pool.Plan.steals plan;
    rr_migrations = Pool.Plan.migrations plan;
    rr_stats = Obs.Timeseries.merge (Array.to_list stats_accs);
  }

(* ------------------------------------------------------------------ *)
(* The load sweep and its saturation knee                              *)

type point = {
  pt_fraction : float;  (** offered load as a fraction of capacity *)
  pt_result : run_result;
}

type sweep = {
  sw_policy : Pool.policy;
  sw_tracees : int;
  sw_shards : int;
  sw_arrivals : int;
  sw_capacity : float;  (** traps/second at *mean* shard util 1.0 *)
  sw_capacity_bottleneck : float;
      (** traps/second at static bottleneck-shard util 1.0 *)
  sw_points : point list;
  sw_knee : int option;  (** index of the first saturated point *)
  sw_knee_reason : string option;
}

(** A scheduler ablation: one fleet and one arrival schedule swept
    under several placement policies against the same capacity
    yardstick. *)
type ablation = {
  ab_tracees : int;
  ab_shards : int;
  ab_arrivals : int;
  ab_capacity : float;
  ab_capacity_bottleneck : float;
  ab_sweeps : sweep list;
}

(** The saturation knee over per-point (max shard utilisation, p99
    queue wait, mean service time): the first point whose bottleneck
    shard is saturated (util >= 1), or — for fleets that degrade
    before the analytic limit — the first whose p99 queue wait blows
    past 8x the lightest-load baseline.  The baseline is floored at
    one mean service time: a queue-wait tail shorter than a handful of
    traps' service is normal bursting, not a knee, even when the
    lightest load waited 0. *)
let detect_knee (points : (float * float * float) list) : (int * string) option =
  match points with
  | [] -> None
  | (_, base_p99, base_service) :: _ ->
    let tail_limit = 8.0 *. Float.max base_p99 base_service in
    let rec go i = function
      | [] -> None
      | (util, p99, _) :: rest ->
        if util >= 1.0 then
          Some (i, "bottleneck shard utilisation reached 1.0")
        else if p99 > tail_limit then
          Some (i, "p99 queue wait exceeded 8x the lightest-load baseline")
        else go (i + 1) rest
    in
    go 0 points

(* Load fractions for an n-point sweep: evenly spaced from a fifth of
   capacity to 15% past it, so the knee is always inside the sweep. *)
let fractions ~points =
  if points < 2 then invalid_arg "Fleet.ablation: points must be >= 2";
  List.init points (fun i ->
      0.2 +. (0.95 *. float_of_int i /. float_of_int (points - 1)))

let wait_p99 (r : run_result) =
  (Obs.Metrics.summarize (Obs.Metrics.histogram r.rr_merged "fleet.queue_wait"))
    .Obs.Metrics.s_p99

let service_mean (r : run_result) =
  (Obs.Metrics.summarize (Obs.Metrics.histogram r.rr_merged "fleet.service"))
    .Obs.Metrics.s_mean

let max_util (r : run_result) = Array.fold_left Float.max 0.0 r.rr_shard_util

(** Per-point imbalance: hottest shard's utilisation over the mean.
    1.0 is perfectly level; [shards] is everything on one shard. *)
let util_spread (r : run_result) =
  let n = Array.length r.rr_shard_util in
  if n = 0 then 0.0
  else begin
    let total = Array.fold_left ( +. ) 0.0 r.rr_shard_util in
    if total <= 0.0 then 0.0 else max_util r /. (total /. float_of_int n)
  end

let sweep_fleet ?stats_interval ~policy (t : t) ~arrivals ~points : sweep =
  let cap = capacity t ~arrivals in
  let pts =
    List.map
      (fun f ->
        { pt_fraction = f;
          pt_result =
            run_at ?stats_interval ~policy t ~arrivals ~rate:(f *. cap) })
      (fractions ~points)
  in
  let knee =
    detect_knee
      (List.map
         (fun p ->
           (max_util p.pt_result, wait_p99 p.pt_result, service_mean p.pt_result))
         pts)
  in
  {
    sw_policy = policy;
    sw_tracees = Array.length t.f_tracees;
    sw_shards = t.f_shards;
    sw_arrivals = arrivals;
    sw_capacity = cap;
    sw_capacity_bottleneck = capacity_bottleneck t ~arrivals;
    sw_points = pts;
    sw_knee = Option.map fst knee;
    sw_knee_reason = Option.map snd knee;
  }

(** The scheduler ablation: build the fleet once, sweep every policy
    in [policies] (default both) over the identical schedule and
    capacity yardstick, each across [points] fractions of
    {!capacity}. *)
let ablation ?stats_interval ?(policies = Pool.all_policies) ~tracees ~shards
    ~arrivals ~points () : ablation =
  let t = build ~tracees ~shards in
  {
    ab_tracees = tracees;
    ab_shards = shards;
    ab_arrivals = arrivals;
    ab_capacity = capacity t ~arrivals;
    ab_capacity_bottleneck = capacity_bottleneck t ~arrivals;
    ab_sweeps =
      List.map
        (fun policy -> sweep_fleet ?stats_interval ~policy t ~arrivals ~points)
        policies;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let summary_json (s : Obs.Metrics.summary) : Report.Json.t =
  let open Report.Json in
  Obj
    [
      ("count", Num (float_of_int s.Obs.Metrics.s_count));
      ("p50", Num s.Obs.Metrics.s_p50);
      ("p99", Num s.Obs.Metrics.s_p99);
      ("p999", Num s.Obs.Metrics.s_p999);
      ("max", Num (float_of_int s.Obs.Metrics.s_max));
      ("mean", Num s.Obs.Metrics.s_mean);
    ]

let point_json (t_shards : int) (p : point) : Report.Json.t =
  let open Report.Json in
  let r = p.pt_result in
  let s name = Obs.Metrics.summarize (Obs.Metrics.histogram r.rr_merged name) in
  Obj
    [
      ("offered_traps_per_sec", Num r.rr_rate);
      ("load_fraction", Num p.pt_fraction);
      ("horizon_cycles", Num (float_of_int r.rr_horizon));
      ("util_max", Num (max_util r));
      ("util_spread", Num (util_spread r));
      ("steals", Num (float_of_int r.rr_steals));
      ("migrations", Num (float_of_int r.rr_migrations));
      ("matches_serial", Bool r.rr_matches_serial);
      ("queue_wait", summary_json (s "fleet.queue_wait"));
      ("e2e", summary_json (s "fleet.e2e"));
      ("service", summary_json (s "fleet.service"));
      ( "shards",
        List
          (List.init t_shards (fun shard ->
               Obj
                 [
                   ("shard", Num (float_of_int shard));
                   ("util", Num r.rr_shard_util.(shard));
                   ( "queue_wait",
                     summary_json
                       (s (Printf.sprintf "fleet.shard%d.queue_wait" shard)) );
                 ])) );
    ]

let knee_json (s : sweep) : Report.Json.t =
  let open Report.Json in
  match (s.sw_knee, s.sw_knee_reason) with
  | Some i, Some reason ->
    let p = List.nth s.sw_points i in
    Obj
      [
        ("index", Num (float_of_int i));
        ("offered_traps_per_sec", Num p.pt_result.rr_rate);
        ("load_fraction", Num p.pt_fraction);
        ("reason", Str reason);
      ]
  | _ -> Null

let policy_json (s : sweep) : Report.Json.t =
  let open Report.Json in
  Obj
    [
      ("policy", Str (Pool.policy_name s.sw_policy));
      ("results", List (List.map (point_json s.sw_shards) s.sw_points));
      ("knee", knee_json s);
    ]

(** The BENCH_fleet.json document (schema v2): offered load vs latency
    tails per scheduler policy, each arm with its own knee, against one
    ideal-aggregate capacity yardstick.  Everything in it derives from
    the modelled clock, so regeneration is byte-identical. *)
let ablation_json (a : ablation) : Report.Json.t =
  let open Report.Json in
  Obj
    [
      ("schema", Str "bastion-fleet/2");
      ( "config",
        Obj
          [
            ("tracees", Num (float_of_int a.ab_tracees));
            ("shards", Num (float_of_int a.ab_shards));
            ("arrivals", Num (float_of_int a.ab_arrivals));
            ( "apps",
              List (List.map (fun (name, _) -> Str name) (small_apps ())) );
          ] );
      ("capacity_traps_per_sec", Num a.ab_capacity);
      ("capacity_bottleneck_traps_per_sec", Num a.ab_capacity_bottleneck);
      ("policies", List (List.map policy_json a.ab_sweeps));
    ]

(** Render a sweep for the terminal ([bastion fleet]). *)
let render_sweep (s : sweep) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "fleet: %d tracees (%s mix), %d shards, %d arrivals/point, %s scheduler\n\
        capacity (mean shard util = 1): %.0f traps/sec (static bottleneck: %.0f)\n\n"
       s.sw_tracees
       (String.concat "/" (List.map fst (small_apps ())))
       s.sw_shards s.sw_arrivals
       (Pool.policy_name s.sw_policy)
       s.sw_capacity s.sw_capacity_bottleneck);
  Buffer.add_string buf
    (Report.Table.render
       ~align:Report.Table.[ R; R; R; R; R; R; R; R; R; R; R ]
       ~header:
         [ "load"; "traps/sec"; "util"; "spread"; "steals";
           "wait p50"; "wait p99"; "wait p99.9";
           "e2e p50"; "e2e p99"; "e2e p99.9" ]
       (List.map
          (fun p ->
            let r = p.pt_result in
            let s name =
              Obs.Metrics.summarize (Obs.Metrics.histogram r.rr_merged name)
            in
            let w = s "fleet.queue_wait" and e = s "fleet.e2e" in
            [
              Printf.sprintf "%.2f" p.pt_fraction;
              Printf.sprintf "%.0f" r.rr_rate;
              Printf.sprintf "%.2f" (max_util r);
              Printf.sprintf "%.2f" (util_spread r);
              string_of_int r.rr_steals;
              Printf.sprintf "%.0f" w.Obs.Metrics.s_p50;
              Printf.sprintf "%.0f" w.Obs.Metrics.s_p99;
              Printf.sprintf "%.0f" w.Obs.Metrics.s_p999;
              Printf.sprintf "%.0f" e.Obs.Metrics.s_p50;
              Printf.sprintf "%.0f" e.Obs.Metrics.s_p99;
              Printf.sprintf "%.0f" e.Obs.Metrics.s_p999;
            ])
          s.sw_points));
  Buffer.add_string buf "\n\n";
  (match (s.sw_knee, s.sw_knee_reason) with
  | Some i, Some reason ->
    let p = List.nth s.sw_points i in
    Buffer.add_string buf
      (Printf.sprintf "saturation knee: point %d (%.2fx capacity, %.0f traps/sec) — %s\n"
         i p.pt_fraction p.pt_result.rr_rate reason)
  | _ -> Buffer.add_string buf "saturation knee: not reached in this sweep\n");
  let bad =
    List.filter (fun p -> not p.pt_result.rr_matches_serial) s.sw_points
  in
  if bad <> [] then
    Buffer.add_string buf
      (Printf.sprintf
         "WARNING: %d point(s) diverged from the serial reference\n"
         (List.length bad));
  Buffer.contents buf

(** Render an ablation: the per-policy knee comparison, then each
    arm's sweep table. *)
let render_ablation (a : ablation) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "scheduler ablation: %d tracees, %d shards, %d arrivals/point\n\
        capacity (mean shard util = 1): %.0f traps/sec (static bottleneck: %.0f)\n\n"
       a.ab_tracees a.ab_shards a.ab_arrivals a.ab_capacity
       a.ab_capacity_bottleneck);
  Buffer.add_string buf
    (Report.Table.render
       ~align:Report.Table.[ L; R; R; R; R ]
       ~header:[ "policy"; "knee load"; "knee traps/sec"; "steals"; "migrations" ]
       (List.map
          (fun s ->
            let steals =
              List.fold_left (fun acc p -> acc + p.pt_result.rr_steals) 0 s.sw_points
            in
            let migrations =
              List.fold_left
                (fun acc p -> acc + p.pt_result.rr_migrations)
                0 s.sw_points
            in
            let knee_load, knee_rate =
              match s.sw_knee with
              | Some i ->
                let p = List.nth s.sw_points i in
                ( Printf.sprintf "%.2f" p.pt_fraction,
                  Printf.sprintf "%.0f" p.pt_result.rr_rate )
              | None -> ("-", "-")
            in
            [
              Pool.policy_name s.sw_policy;
              knee_load;
              knee_rate;
              string_of_int steals;
              string_of_int migrations;
            ])
          a.ab_sweeps));
  Buffer.add_string buf "\n\n";
  List.iter
    (fun s ->
      Buffer.add_string buf (render_sweep s);
      Buffer.add_char buf '\n')
    a.ab_sweeps;
  Buffer.contents buf
