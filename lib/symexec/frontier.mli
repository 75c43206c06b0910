(** Shared exploration frontier for multicore path exploration.

    One {!Sched.queue} per worker domain, each behind its own mutex; a
    worker pops from its own queue and, when empty, steals from the victim
    with the largest queue (taking the end the victim's strategy values
    least — see {!Sched.steal}).

    Termination detection: [size] (queued states) and [inflight] (states
    being executed) are process-wide atomics; [inflight] is raised before
    a pop and lowered only after forked children are pushed, so
    {!quiescent} never fires while a state that might still fork is in
    motion. *)

type t

val create :
  workers:int ->
  max_states:int ->
  strategy:Sched.strategy ->
  key:(Symstate.t -> int) ->
  priority:(int -> int) ->
  t
(** One empty queue per worker; [key] and [priority] are passed to each
    {!Sched.create}. *)

val n_workers : t -> int
val size : t -> int
val steals : t -> int
(** Successful cross-worker steals since creation. *)

val dropped : t -> int
(** States rejected by the [max_states] cap. *)

val push : t -> worker:int -> Symstate.t -> bool
(** Add a freshly forked state to [worker]'s queue; [false] if the
    [max_states] cap rejected it (caller retires the state). *)

val requeue : t -> worker:int -> Symstate.t -> unit
(** Re-add a quantum-expired state ({!Sched.requeue} semantics). The
    [max_states] cap does not apply: the state is already admitted and
    dropping it would silently lose a live path. *)

val pick : t -> worker:int -> Symstate.t option
(** Pop from the own queue or steal; [Some] means the caller now holds an
    inflight state and {b must} call {!task_done} after executing it (and
    after pushing any children). [None] means no work was available at
    this instant — not necessarily termination; check {!quiescent}. A
    fault raised by the priority function propagates with the inflight
    counter restored, so a crashing worker cannot wedge termination
    detection. *)

val task_done : t -> unit
val quiescent : t -> bool

val iter : t -> (Symstate.t -> unit) -> unit
(** Visit every queued state (each queue under its lock); inflight states
    are not visited. *)

val rehome : t -> from_:int -> to_:int -> int
(** Move every state queued on [from_]'s queue to [to_]'s queue,
    preserving them for [to_]'s strategy ({!Sched.requeue} semantics).
    [size] is unchanged throughout, so termination detection never sees
    an intermediate dip. Returns the number of states moved. Used by the
    dead-worker reaper to rescue the queue of a crashed domain. *)

val queue_length : t -> worker:int -> int
(** Length of one worker's queue, read without its lock (staleness only
    costs a redundant reaper check). *)

val drain_all : t -> Symstate.t list
(** Remove every queued state (worker-index order). Only sound once all
    workers have stopped. *)

(** {1 Checkpointing}

    Dumps are only meaningful at quiescent points — an inflight state
    would be missing from the checkpoint. *)

val dump_queue : t -> worker:int -> (Symstate.t * int * int) list * int
(** One worker queue's {!Sched.dump_entries}. Non-destructive. *)

val restore_queue :
  t -> worker:int -> (Symstate.t * int * int) list -> hseq:int -> unit
(** Refill one (empty) worker queue and account the states in [size]. *)

val restore_counters : t -> steals:int -> dropped:int -> unit
(** Restore the statistics of a fresh frontier. *)
