(** Scheduling policies for the simulated machine.

    A policy picks which runnable thread executes the next operation.
    [Random] reproduces a run exactly under a fixed seed; [Replay]
    re-executes a previously recorded pick sequence — the classic
    race-debugging loop: sweep seeds until a schedule manifests the
    bug, then replay that schedule while investigating.

    Picking reads the machine's {!Runnable_set} directly (no per-step
    list materialization), so a pick costs O(log threads).  Picks are
    not kept: to capture a run's schedule, observe
    {!Hooks.t.on_pick} (the record/replay layer's recorder does). *)

type t =
  | Random of int        (** Uniform over runnable threads, seeded. *)
  | Round_robin          (** Deterministic rotation. *)
  | Replay of int array  (** Recorded thread ids; falls back to
                             round-robin when the recorded pick is no
                             longer runnable or the tape runs out. *)

type state

val start : t -> state

val pick : state -> runnable:Runnable_set.t -> int
(** Choose a member of [runnable] (non-empty).
    The random policy indexes the set in descending-tid order, which
    preserves the pick sequence of every historical seed. *)

val pp : Format.formatter -> t -> unit
