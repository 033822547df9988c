(** A deliberately lock-convoyed workload.

    Not a paper application: this model maximizes lock contention —
    all threads hammer one lock, and nearly every executed operation
    is an in-section access — so that the cost of charging waiter
    dilation dominates the run.  It is the stress test for the
    machine's per-lock dilation settlement (DESIGN.md §10) and one of
    perfbench's workloads. *)

val convoy : Spec.t
val all : Spec.t list
