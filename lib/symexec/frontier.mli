(** Shared exploration frontier for multicore path exploration.

    One min-touch {!Sched.queue} per worker domain, each behind its own
    mutex; a worker pops from its own queue and, when empty, steals from
    the victim with the largest queue (taking what the victim values
    least — see {!Sched.steal}). Every non-empty queue is a victim, so a
    worker whose loop died leaves its queue to be drained by the others.

    Termination detection: [size] (queued states) and [inflight] (states
    being executed) are process-wide atomics; [inflight] is raised before
    a pop and lowered only after forked children are pushed, so
    {!quiescent} never fires while a state that might still fork is in
    motion. *)

type t

val create :
  workers:int ->
  key:(Symstate.t -> int) ->
  priority:(int -> int) ->
  t
(** One empty queue per worker; [key] and [priority] are passed to each
    {!Sched.create}. *)

val n_workers : t -> int
val size : t -> int
val steals : t -> int
(** Successful cross-worker steals since creation. *)

val push : t -> worker:int -> Symstate.t -> unit
(** Add a state — freshly forked or quantum-expired — to [worker]'s
    queue. *)

val pick : t -> worker:int -> Symstate.t option
(** Pop from the own queue or steal; [Some] means the caller now holds an
    inflight state and {b must} call {!task_done} after executing it (and
    after pushing any children). [None] means no work was available at
    this instant — not necessarily termination; check {!quiescent}. A
    fault raised by the priority function propagates and leaves the
    inflight count raised; the engine then stops every worker instead
    of waiting for quiescence ([Exec.run]). *)

val task_done : t -> unit
val quiescent : t -> bool

val iter : t -> (Symstate.t -> unit) -> unit
(** Visit every queued state (each queue under its lock); inflight states
    are not visited. *)

val drain_all : t -> Symstate.t list
(** Remove every queued state (worker-index order). Only sound once all
    workers have stopped. *)
