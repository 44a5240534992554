(* Host wall clock: a monotonic nanosecond counter.  Every host-time
   metric of the benchmark is read from here and nowhere else. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

let since t0 = seconds_between t0 (now_ns ())

(** [time f] is [f ()] and the host seconds it took. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* ------------------------------------------------------------------ *)
(* Rescaling to a nominal machine                                      *)

(* The machine is shared: a neighbour can slow this process for seconds
   at a time by half as much again, and its speed drifts between
   sessions.  So a fixed reference kernel, shaped like the simulator's
   work (dependent loads scattered over a large heap, hash lookups and
   short-lived allocation), is timed just before and just after each
   measured chunk, and the chunk's host time is rescaled to a nominal
   machine on which the kernel takes [nominal_s]. *)

let nominal_s = 0.010

(* A cycle through 8 MB of words in a scattered order (a full-period
   linear congruential step): the memory-latency half of the kernel. *)
let chase_table =
  lazy (Array.init (1 lsl 20) (fun i -> ((i * 1_103_515_245) + 12_345) land ((1 lsl 20) - 1)))

let kernel () =
  let next = Lazy.force chase_table in
  let p = ref 0 in
  for _ = 1 to 60_000 do
    p := next.(!p)
  done;
  let h = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace h (i * 7919) i
  done;
  let acc = ref !p in
  for r = 0 to 39 do
    for i = 0 to 4095 do
      match Hashtbl.find_opt h (i * 7919) with Some v -> acc := !acc + v + r | None -> ()
    done;
    acc := !acc + List.length (List.init 256 (fun i -> i + r))
  done;
  !acc

(* Every reference timing of the process, for the run record. *)
let reference_s = ref []

(** The factor that rescales a host time measured now to the nominal
    machine. *)
let speed_factor () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let s = since t0 in
  reference_s := s :: !reference_s;
  nominal_s /. s

(** [scaled f] is [f ()], the host seconds it took, and those seconds
    rescaled to the nominal machine by the mean of the factors taken
    before and after. *)
let scaled f =
  let before = speed_factor () in
  let r, secs = time f in
  let after = speed_factor () in
  (r, secs, secs *. (before +. after) /. 2.0)
