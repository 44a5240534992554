(* A bounded MPSC queue on Mutex/Condition.  Two conditions: [not_full]
   wakes blocked producers, [not_empty] wakes the consumer.  All state,
   including the statistics, lives under the one mutex — the queue is a
   coordination point, not a hot loop, and a trap already costs two
   priced ptrace reads before it gets here. *)

exception Closed

type 'a t = {
  lock : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  (* statistics *)
  mutable pushed : int;
  mutable popped : int;
  mutable max_depth : int;
  mutable blocked_pushes : int;
  mutable batches : int;
}

type stats = {
  q_capacity : int;
  q_pushed : int;
  q_popped : int;
  q_max_depth : int;
  q_blocked_pushes : int;
  q_batches : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Trap_queue.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
    items = Queue.create ();
    capacity;
    closed = false;
    pushed = 0;
    popped = 0;
    max_depth = 0;
    blocked_pushes = 0;
    batches = 0;
  }

let locked (t : 'a t) f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let push (t : 'a t) x =
  locked t (fun () ->
      if t.closed then raise Closed;
      if Queue.length t.items >= t.capacity then begin
        t.blocked_pushes <- t.blocked_pushes + 1;
        while Queue.length t.items >= t.capacity && not t.closed do
          Condition.wait t.not_full t.lock
        done
      end;
      if t.closed then raise Closed;
      Queue.push x t.items;
      t.pushed <- t.pushed + 1;
      let d = Queue.length t.items in
      if d > t.max_depth then t.max_depth <- d;
      Condition.signal t.not_empty)

let pop_batch (t : 'a t) ~max =
  locked t (fun () ->
      while Queue.is_empty t.items && not t.closed do
        Condition.wait t.not_empty t.lock
      done;
      let n = min max (Queue.length t.items) in
      let rec take k acc =
        if k = 0 then List.rev acc else take (k - 1) (Queue.pop t.items :: acc)
      in
      let batch = take (Stdlib.max 0 n) [] in
      if batch <> [] then begin
        t.popped <- t.popped + List.length batch;
        t.batches <- t.batches + 1;
        (* More than one slot may have opened up; wake every waiter. *)
        Condition.broadcast t.not_full
      end;
      batch)

let close (t : 'a t) =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Condition.broadcast t.not_full;
        Condition.broadcast t.not_empty
      end)

let stats (t : 'a t) =
  locked t (fun () ->
      {
        q_capacity = t.capacity;
        q_pushed = t.pushed;
        q_popped = t.popped;
        q_max_depth = t.max_depth;
        q_blocked_pushes = t.blocked_pushes;
        q_batches = t.batches;
      })

(* ------------------------------------------------------------------ *)
(* The stealable deque of whole-tracee claims                          *)

(* A mutex-guarded double-ended queue: the owning shard pops claims
   from the front (FIFO over its seeded work), idle thieves steal from
   the back — the claim least likely to be the one the owner touches
   next.  Like the trap queue, this is a coordination point, not a hot
   loop: a claim is a whole tracee's work batch, so contention is per
   tracee, not per trap.  No blocking: deques are seeded up front and
   never refilled, so an empty scan means the work is done. *)
module Deque = struct
  type 'a t = {
    d_lock : Mutex.t;
    (* Front list in order + back list reversed: O(1) amortised at
       both ends, fine under a mutex. *)
    mutable front : 'a list;
    mutable back : 'a list;
    mutable d_len : int;
    mutable d_pushed : int;
    mutable d_popped : int;  (* owner pops (front) *)
    mutable d_stolen : int;  (* thief steals (back) *)
    mutable d_max_len : int;
  }

  type stats = {
    dq_pushed : int;
    dq_popped : int;
    dq_stolen : int;
    dq_max_len : int;
  }

  let create () =
    {
      d_lock = Mutex.create ();
      front = [];
      back = [];
      d_len = 0;
      d_pushed = 0;
      d_popped = 0;
      d_stolen = 0;
      d_max_len = 0;
    }

  let locked (t : 'a t) f =
    Mutex.lock t.d_lock;
    match f () with
    | v ->
      Mutex.unlock t.d_lock;
      v
    | exception e ->
      Mutex.unlock t.d_lock;
      raise e

  let push_back (t : 'a t) x =
    locked t (fun () ->
        t.back <- x :: t.back;
        t.d_len <- t.d_len + 1;
        t.d_pushed <- t.d_pushed + 1;
        if t.d_len > t.d_max_len then t.d_max_len <- t.d_len)

  let pop_front (t : 'a t) =
    locked t (fun () ->
        (match t.front with
        | [] ->
          t.front <- List.rev t.back;
          t.back <- []
        | _ -> ());
        match t.front with
        | [] -> None
        | x :: rest ->
          t.front <- rest;
          t.d_len <- t.d_len - 1;
          t.d_popped <- t.d_popped + 1;
          Some x)

  let steal_back (t : 'a t) =
    locked t (fun () ->
        (match t.back with
        | [] ->
          t.back <- List.rev t.front;
          t.front <- []
        | _ -> ());
        match t.back with
        | [] -> None
        | x :: rest ->
          t.back <- rest;
          t.d_len <- t.d_len - 1;
          t.d_stolen <- t.d_stolen + 1;
          Some x)

  let length (t : 'a t) = locked t (fun () -> t.d_len)

  let stats (t : 'a t) =
    locked t (fun () ->
        {
          dq_pushed = t.d_pushed;
          dq_popped = t.d_popped;
          dq_stolen = t.d_stolen;
          dq_max_len = t.d_max_len;
        })
end
