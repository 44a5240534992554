(* Order statistics for the benchmark's reports. *)

(** A growable buffer of integer samples. *)
module Ints = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 256 0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let sum t = Array.fold_left ( + ) 0 (to_array t)
end

let sorted_floats xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted_floats xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** The three quartile cut points, as Python's
    [statistics.quantiles(xs, n=4)] computes them (the default
    "exclusive" method). *)
let quartiles xs =
  let a = sorted_floats xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = n + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      (* [j] is 1-based and clamped before the weight is taken, as in
         Python, so the interpolation stays inside the data. *)
      let j = max 1 (min (i * m / 4) (n - 1)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0)

(** Distance between the first and third quartile, as a share of the
    median: the run-to-run spread the benchmark's bounds are set
    against. *)
let quartile_spread xs =
  let q = quartiles xs in
  let med = median xs in
  if med = 0.0 then infinity else (q.(2) -. q.(0)) /. Float.abs med

(** Interpolated percentile ([p] in \[0,1\]) of integer samples, linear
    between order statistics.  [None] when fewer than ten samples lie
    beyond it: a tail read from a handful of points is not reported. *)
let percentile (samples : int array) p =
  let n = Array.length samples in
  (* Samples strictly above rank ceil(n p), in integers so 100 samples
     do have ten beyond their p90. *)
  let beyond = n - int_of_float (Float.ceil ((float_of_int n *. p) -. 1e-9)) in
  if beyond < 10 then None
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    let h = float_of_int (n - 1) *. p in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    let frac = h -. float_of_int lo in
    Some (float_of_int a.(lo) +. (frac *. float_of_int (a.(hi) - a.(lo))))
  end

(** Throughput of a measured phase made of chunks of a few kinds (an
    app's run, a load point, a pass), each timed on the host clock and
    rescaled to the nominal machine ({!Clock.scaled}).  Each kind runs
    at the median of its chunks' rescaled rates; the phase's rate is its
    total ops over the time they take at those rates, so it keeps the
    phase's own mix of kinds. *)
module Rates = struct
  type kind = { mutable k_ops : int; mutable k_rates : float list }

  type t = {
    mutable ops : int;
    mutable secs : float;  (* host seconds, not rescaled *)
    kinds : (string, kind) Hashtbl.t;
  }

  let create () = { ops = 0; secs = 0.0; kinds = Hashtbl.create 8 }

  let add t ~kind ~ops ~secs ~scaled_secs =
    t.ops <- t.ops + ops;
    t.secs <- t.secs +. secs;
    let k =
      match Hashtbl.find_opt t.kinds kind with
      | Some k -> k
      | None ->
        let k = { k_ops = 0; k_rates = [] } in
        Hashtbl.replace t.kinds kind k;
        k
    in
    k.k_ops <- k.k_ops + ops;
    if scaled_secs > 0.0 then k.k_rates <- (float_of_int ops /. scaled_secs) :: k.k_rates

  let rate t =
    let secs =
      Hashtbl.fold
        (fun _ k acc ->
          if k.k_rates = [] then acc else acc +. (float_of_int k.k_ops /. median k.k_rates))
        t.kinds 0.0
    in
    if secs > 0.0 then float_of_int t.ops /. secs else 0.0
end
