(** Mutex state for the simulated machine.

    Non-reentrant POSIX-style mutexes with FIFO wakeup.  Lock ids are
    plain (small, dense) non-negative ints chosen by the workload;
    lock state is held in id-indexed arrays and waiter queues in ring
    buffers, so the lock/unlock path neither hashes nor allocates
    (beyond the held-list cons per acquire).

    Alongside the per-lock owner and waiter queue, the table maintains
    a per-thread index of held locks, so "which locks does thread [t]
    own" and "who waits on lock [l]" are both answerable in time
    proportional to the answer — never by scanning every lock or every
    thread.  Each lock also keeps a waiter-dilation total, which lets
    the machine settle waiter stalls once per lock instead of once per
    waiter per charge. *)

type t

val create : unit -> t

type acquire_result =
  | Acquired                (** The lock was free; caller now owns it. *)
  | Must_wait               (** Caller was queued; it must block. *)

val acquire : t -> lock:int -> tid:int -> acquire_result
(** @raise Invalid_argument if [tid] already owns [lock] (the
    simulated program deadlocked on itself). *)

val release : t -> lock:int -> tid:int -> int option
(** Returns the woken waiter, to whom ownership transfers directly
    (the held-lock index moves the lock to the waiter as well).
    @raise Invalid_argument if [tid] does not own [lock]. *)

val owner : t -> lock:int -> int option

val held_by : t -> tid:int -> int list
(** All locks the thread currently owns, most recently acquired first.
    O(locks held by [tid]), maintained incrementally by
    [acquire]/[release] rather than folded over the whole table. *)

val iter_held : t -> tid:int -> (int -> unit) -> unit
(** Apply a function to every lock [tid] owns (allocation-free
    [held_by]). *)

val iter_waiters : t -> lock:int -> (int -> unit) -> unit
(** Apply a function to every thread queued on [lock], FIFO order. *)

val waiter_count : t -> lock:int -> int

val dilate_held : t -> tid:int -> int -> int
(** [dilate_held t ~tid cycles]: the holder [tid] spent [cycles]; add
    them to the dilation total of every lock it owns that has waiters
    and return the number of threads stalled (the sum of those locks'
    waiter counts).  O(locks held by [tid]). *)

val dilation : t -> lock:int -> int
(** The running dilation total of [lock].  A waiter's stall is the
    difference between the total when it queued and the total when it
    was granted the lock. *)

val contended_acquires : t -> int
val total_acquires : t -> int
