(* The traced run's span recorder.  A span is one call across a layer
   boundary: name, start, end and the span that caused it (0 for a
   root).  Spans are kept in memory, up to a cap, and written out when
   the benchmark ends.  Self time is a span's duration minus the time
   its child spans cover; it is folded into per-name totals as each
   span closes, so the totals stay exact even past the cap. *)

type span = { id : int; name : string; parent : int; start_ns : int; stop_ns : int }

type total = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

type frame = {
  f_id : int;
  f_name : string;
  f_parent : int;
  f_start : int;
  mutable f_child_ns : int;
}

type t = {
  now : unit -> int;
  cap : int;
  mutable kept : span list;  (* newest first *)
  mutable n_kept : int;
  mutable dropped : int;
  mutable stack : frame list;  (* open spans, innermost first *)
  mutable next_id : int;
  totals : (string, total) Hashtbl.t;
}

let create ?(now = Clock.now_ns) ?(cap = 200_000) () =
  { now; cap; kept = []; n_kept = 0; dropped = 0; stack = []; next_id = 1;
    totals = Hashtbl.create 32 }

let enter t name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with f :: _ -> f.f_id | [] -> 0 in
  t.stack <-
    { f_id = id; f_name = name; f_parent = parent; f_start = t.now (); f_child_ns = 0 }
    :: t.stack

let total t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> a
  | None ->
    let a = { count = 0; total_ns = 0; self_ns = 0 } in
    Hashtbl.replace t.totals name a;
    a

let leave t =
  match t.stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | f :: rest ->
    let stop = t.now () in
    let dur = stop - f.f_start in
    (match rest with p :: _ -> p.f_child_ns <- p.f_child_ns + dur | [] -> ());
    t.stack <- rest;
    let a = total t f.f_name in
    a.count <- a.count + 1;
    a.total_ns <- a.total_ns + dur;
    a.self_ns <- a.self_ns + dur - f.f_child_ns;
    if t.n_kept < t.cap then begin
      t.kept <-
        { id = f.f_id; name = f.f_name; parent = f.f_parent; start_ns = f.f_start;
          stop_ns = stop }
        :: t.kept;
      t.n_kept <- t.n_kept + 1
    end
    else t.dropped <- t.dropped + 1

let with_span t name f =
  enter t name;
  match f () with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

let spans t = List.rev t.kept

let count t name = match Hashtbl.find_opt t.totals name with Some a -> a.count | None -> 0

let total_s t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> float_of_int a.total_ns *. 1e-9
  | None -> 0.0

let self_s t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> float_of_int a.self_ns *. 1e-9
  | None -> 0.0

(** Self time of every span in a closed list, by id: duration minus
    the summed durations of its direct children. *)
let self_times (spans : span list) =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop_ns - s.start_ns in
      Hashtbl.replace child s.parent
        (d + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s.id, s.stop_ns - s.start_ns - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
    spans

(** One JSON object per kept span, then one summary line with the
    per-name totals and the number of spans past the cap. *)
let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.parent s.start_ns s.stop_ns)
    (spans t);
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.totals []) in
  Printf.fprintf oc "{\"dropped\":%d,\"totals\":{%s}}\n" t.dropped
    (String.concat ","
       (List.map
          (fun n ->
            let a = Hashtbl.find t.totals n in
            Printf.sprintf "\"%s\":{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}" n
              a.count a.total_ns a.self_ns)
          names));
  close_out oc
