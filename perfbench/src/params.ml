(* The benchmark's inputs, made from its seed.  Seed 0 reproduces the
   repository defaults exactly; any other seed draws from a narrow band
   around them, so a run's modelled numbers move a little from seed to
   seed but stay comparable. *)

open Workloads

(** One parameter set for each of the three application models. *)
type draw = {
  nginx : Nginx_model.params;
  sqlite : Sqlite_model.params;
  vsftpd : Vsftpd_model.params;
}

let defaults =
  { nginx = Nginx_model.default; sqlite = Sqlite_model.default;
    vsftpd = Vsftpd_model.default }

(** Half-width of the parameter band, as a share of the default. *)
let band = 0.02

let rng seed = Random.State.make [| 0x6261_7374; seed |]

let jitter st x =
  let u = (Random.State.float st 2.0 -. 1.0) *. band in
  max 1 (int_of_float (Float.round (float_of_int x *. (1.0 +. u))))

(* Connections, requests or transactions, and page, row or file size:
   the dimensions the models' traffic scales with.  vsftpd varies only
   its file size, in whole sendfile chunks' worth: its overhead rests
   on under a hundred traps, so one transfer or one chunk more or less
   would move it by several percent. *)
let draw st =
  let d = defaults in
  { nginx =
      { d.nginx with
        connections = jitter st d.nginx.connections;
        requests_per_conn = jitter st d.nginx.requests_per_conn;
        page_words = jitter st d.nginx.page_words };
    sqlite =
      { d.sqlite with
        connections = jitter st d.sqlite.connections;
        txns_per_conn = jitter st d.sqlite.txns_per_conn;
        row_words = jitter st d.sqlite.row_words };
    vsftpd =
      (let chunk_words = jitter st d.vsftpd.chunk_words in
       { d.vsftpd with
         chunk_words; file_words = chunk_words * (d.vsftpd.file_words / d.vsftpd.chunk_words) }) }

(** [n] parameter draws for [seed]. *)
let draws ~seed ~n =
  if seed = 0 then List.init n (fun _ -> defaults)
  else begin
    let st = rng seed in
    List.init n (fun _ -> draw st)
  end

(** Per-tracee trap weights and profile offsets for a fleet of
    [tracees] whose tracee [k] replays a profile of [profile_len k]
    traps.  Seed 0 is {!Workloads.Fleet.build}'s shape; other seeds
    nudge each weight by at most one and start each tracee at a random
    point of its profile. *)
let fleet_shape ~seed ~tracees ~profile_len =
  let st = rng seed in
  Array.init tracees (fun k ->
      let w = Fleet.weight_of k in
      if seed = 0 then (w, k * 13 mod profile_len k)
      else
        let dw = Random.State.int st 3 - 1 in
        (max 1 (w + dw), Random.State.int st (profile_len k)))

(** A seeded order of a fixed corpus; seed 0 keeps the given order. *)
let order ~seed xs =
  if seed = 0 then xs
  else begin
    let st = rng seed in
    let a = Array.of_list xs in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  end
