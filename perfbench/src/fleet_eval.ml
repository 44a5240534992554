(* A workload's trap traffic served by the sharded monitor pool: the
   fleet numbers every workload reports.  The fleet has the shape of
   [Fleet.build] — 64 tracees cycling through the workload's trap
   profiles with skewed weights — on two shards, driven open-loop:
   arrival [i] is due at a fixed point of the modelled clock whatever
   the pool does, and each trap is timed from that point, so the
   generator is never late by construction. *)

module Fleet = Workloads.Fleet
module Pool = Bastion_mt.Monitor_pool

let shards = 2
let tracees = 64

(** The pool starts one worker domain per shard; refuse to start more
    than the machine has processors. *)
let check_domains () =
  let n = Domain.recommended_domain_count () in
  if n < shards then
    failwith
      (Printf.sprintf "the fleet needs %d worker domains but only %d processors exist"
         shards n)

(** A trap profile from one measured tracer-hook window: the fleet
    model uses only [Fleet.service], so the whole window stands in the
    snapshot slot. *)
let profile ~prefilter cycles =
  { Fleet.tp_prefilter = prefilter; tp_snapshot = cycles; tp_ct = 0; tp_cf = 0; tp_ai = 0 }

(** The fleet over named per-app profiles, shaped by the seed. *)
let make ~seed (profiles : (string * Fleet.trap_profile array) list) : Fleet.t =
  let apps = Array.of_list (List.filter (fun (_, p) -> Array.length p > 0) profiles) in
  let n = Array.length apps in
  if n = 0 then failwith "fleet: the workload produced no traps";
  let shape =
    Params.fleet_shape ~seed ~tracees ~profile_len:(fun k -> Array.length (snd apps.(k mod n)))
  in
  {
    Fleet.f_tracees =
      Array.init tracees (fun k ->
          let name, prof = apps.(k mod n) in
          let w, o = shape.(k) in
          { Fleet.ts_id = k; ts_app = name; ts_weight = w; ts_profile = prof; ts_offset = o });
    f_shards = shards;
  }

(* Under [Steal] the knee sits near full utilisation, so the grid is
   fine there; its first point is the light-load baseline
   [Fleet.detect_knee] measures the tail against. *)
let knee_grid = 0.2 :: 0.5 :: List.init 13 (fun i -> 0.8 +. (0.025 *. float_of_int i))

let e2e_p99 (r : Fleet.run_result) =
  (Obs.Metrics.summarize (Obs.Metrics.histogram r.rr_merged "fleet.e2e")).Obs.Metrics.s_p99

(** One open-loop point, a chunk of [rates]; a point whose sharded
    result differs from the serial reference is a failed op. *)
let point (out : Out.t) rates fleet ~policy ~arrivals ~rate =
  let r, secs, scaled_secs =
    Clock.scaled (fun () -> Fleet.run_at ~policy fleet ~arrivals ~rate)
  in
  (* Every point costs the pool about the same per trap, whatever its
     load, so all points are one kind of chunk. *)
  Stats.Rates.add rates ~kind:"point" ~ops:arrivals ~secs ~scaled_secs;
  if not r.rr_matches_serial then
    Out.fail out (Printf.sprintf "fleet point at %.0f traps/s diverged from serial" rate);
  r

(** The end-to-end fleet metrics under [Steal]: p99 of queue wait plus
    service at 0.5x and 0.9x of [Fleet.capacity], and the highest grid
    rate before [Fleet.detect_knee] fires. *)
let evaluate (out : Out.t) rates fleet ~arrivals ~grid_arrivals =
  let cap = Fleet.capacity fleet ~arrivals in
  let at frac = point out rates fleet ~policy:Pool.Steal ~arrivals ~rate:(frac *. cap) in
  Out.set out "fleet.e2e_p99_cycles.load50" (e2e_p99 (at 0.5));
  Out.set out "fleet.e2e_p99_cycles.load90" (e2e_p99 (at 0.9));
  let gcap = Fleet.capacity fleet ~arrivals:grid_arrivals in
  let grid =
    List.map
      (fun f ->
        let rate = f *. gcap in
        (rate, point out rates fleet ~policy:Pool.Steal ~arrivals:grid_arrivals ~rate))
      knee_grid
  in
  let knee =
    Fleet.detect_knee
      (List.map (fun (_, r) -> (Fleet.max_util r, Fleet.wait_p99 r, Fleet.service_mean r)) grid)
  in
  let rates = Array.of_list (List.map fst grid) in
  let sustained =
    match knee with
    | None -> rates.(Array.length rates - 1)
    | Some (0, _) ->
      Out.fail out "fleet knee at the light-load baseline";
      rates.(0)
    | Some (i, _) -> rates.(i - 1)
  in
  Out.set out "fleet.sustained_traps_per_s" sustained

(** The traced fleet pass: both placement arms at both loads, with
    the plan, the serial reference and the pool timed apart.  The
    pool's share is [Fleet.run_at] minus its own serial run. *)
let layers (out : Out.t) spans fleet ~arrivals =
  let cap = Fleet.capacity fleet ~arrivals in
  let sched = Fleet.schedule fleet ~arrivals in
  List.iter
    (fun (arm, policy) ->
      List.iter
        (fun (load, frac) ->
          let rate = frac *. cap in
          let spacing = Workloads.Drivers_config.cycles_per_second /. rate in
          let key s = Printf.sprintf "fleet.%s.%s" arm s in
          let plan, plan_s =
            Clock.time (fun () ->
                Spans.with_span spans "fleet.plan" (fun () ->
                    fst (Fleet.plan_schedule ~policy fleet sched ~spacing)))
          in
          Out.add out (key "plan_s") plan_s;
          let _, serial_s =
            Clock.time (fun () ->
                Spans.with_span spans "fleet.serial" (fun () ->
                    Fleet.simulate_serial ~policy fleet sched ~spacing))
          in
          let r, run_s =
            Clock.time (fun () ->
                Spans.with_span spans "fleet.run_at" (fun () ->
                    Fleet.run_at ~policy fleet ~arrivals ~rate))
          in
          if not r.rr_matches_serial then Out.fail out "traced fleet point diverged";
          Out.add out (key "serial_s") serial_s;
          Out.add out (key "pool_s") (run_s -. serial_s);
          let k s = key (Printf.sprintf "%s.%s" load s) in
          Out.set out (k "service_mean_cycles") (Fleet.service_mean r);
          Out.set out (k "queue_wait_p99_cycles") (Fleet.wait_p99 r);
          Out.set out (k "util_spread") (Fleet.util_spread r);
          Out.seti out (k "steals") (Pool.Plan.steals plan);
          Out.seti out (k "migrations") (Pool.Plan.migrations plan))
        [ ("load50", 0.5); ("load90", 0.9) ])
    [ ("static", Pool.Static); ("steal", Pool.Steal) ]
