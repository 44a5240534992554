(** A bounded multi-producer / single-consumer queue for the sharded
    trap pipeline (Mutex/Condition, no lock-free tricks): producers
    block when the queue is full — traps are *never* dropped, the
    tracee side simply stalls, which is exactly the backpressure a
    ptrace stop gives the kernel — and the consumer pops in batches to
    amortise lock traffic.

    Close semantics: {!close} wakes everyone; blocked producers raise
    {!Closed}, the consumer drains whatever is left and then receives
    [[]] from {!pop_batch} as the end-of-stream mark. *)

type 'a t

exception Closed

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** Enqueue, blocking while the queue is full.
    @raise Closed if the queue is (or becomes, while waiting) closed. *)

val pop_batch : 'a t -> max:int -> 'a list
(** Dequeue up to [max] items in FIFO order, blocking while the queue
    is empty and still open.  Returns [[]] only when the queue is
    closed and fully drained. *)

val close : 'a t -> unit
(** Idempotent.  Pending items remain poppable. *)

(** Lifetime statistics, all maintained under the queue's lock. *)
type stats = {
  q_capacity : int;
  q_pushed : int;          (** items enqueued *)
  q_popped : int;          (** items dequeued *)
  q_max_depth : int;       (** high-water occupancy *)
  q_blocked_pushes : int;  (** pushes that found the queue full and waited *)
  q_batches : int;         (** pop_batch calls that returned at least one item *)
}

val stats : 'a t -> stats

(** A mutex-guarded stealable deque of whole-tracee claims for the
    work-stealing scheduler: the owning shard pops from the front
    (FIFO over its seeded work), idle thieves steal from the back.
    Deques are seeded up front and never refilled, so an empty scan
    across every deque means the work is done — no blocking needed. *)
module Deque : sig
  type 'a t

  type stats = {
    dq_pushed : int;   (** claims seeded onto this deque *)
    dq_popped : int;   (** claims the owner popped from the front *)
    dq_stolen : int;   (** claims thieves stole from the back *)
    dq_max_len : int;  (** high-water occupancy *)
  }

  val create : unit -> 'a t
  val push_back : 'a t -> 'a -> unit
  val pop_front : 'a t -> 'a option
  val steal_back : 'a t -> 'a option
  val length : 'a t -> int
  val stats : 'a t -> stats
end
