(* The open-loop fleet bench (BENCH_fleet.json and the `fleet`
   section).

   A heterogeneous fleet (mixed NGINX/SQLite/vsftpd small-scale
   tracees, skewed trap rates) is swept across offered-load points
   through the sharded monitor pool under each scheduler policy
   (static / steal); every point reports p50/p99/p99.9
   queue-wait and end-to-end latency in modelled cycles plus the
   per-shard utilisation spread and steal/migration counts, and each
   policy arm reports its detected saturation knee against the same
   ideal-aggregate capacity.  Everything derives from the modelled
   clock — regenerating the committed BENCH_fleet.json is
   byte-identical — and every point is checked against the serial
   reference simulation ([matches_serial], asserted by the artifact's
   test). *)

module F = Workloads.Fleet

let ablation =
  lazy (F.ablation ~tracees:64 ~shards:4 ~arrivals:6000 ~points:6 ())

let document () = F.ablation_json (Lazy.force ablation)

let run () =
  print_endline "== Fleet: open-loop tail latency vs offered load ==";
  print_endline "";
  print_string (F.render_ablation (Lazy.force ablation));
  print_endline ""
