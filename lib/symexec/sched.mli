(** The min-touch path-selection queue of one frontier worker.

    Min-touch is the coverage heuristic of the paper (§4.3, after EXE):
    keep a counter per basic block and always pick the state whose
    current block was executed least, which starves states stuck in
    polling loops. Ties break FIFO toward the state queued earliest. It
    is the engine's only search order.

    The queue is a lazy binary heap over {e buckets}: the states waiting
    at one key (the engine keys a state by its current block) share a
    priority, so they queue FIFO in one bucket and the heap holds one
    entry per non-empty bucket. Picks are O(1) / O(log b) for b waiting
    blocks, and a block's count bump stales one heap entry, not one per
    state waiting there. The queue is also the unit the work-stealing
    frontier ({!Frontier}) steals from: [steal] removes what the owner
    values least.

    Queues are NOT thread-safe on their own; {!Frontier} wraps each one in
    a mutex. *)

type queue

val create : key:(Symstate.t -> int) -> priority:(int -> int) -> queue
(** [create ~key ~priority] makes an empty queue. [key] names what a
    state's priority depends on (it must not change while the state is
    queued) and [priority] prices a key. A key's priority may grow over
    time — the heap re-evaluates lazily — but must never shrink. Pops
    return the state minimizing (live priority of its key, push
    order). *)

val length : queue -> int

val push : queue -> Symstate.t -> unit
(** Queue a state behind every state already waiting at an equal
    priority — a fresh fork and a quantum-expired state alike. *)

val pop : queue -> Symstate.t option
(** Remove the state of least (live priority, push order), if any. *)

val steal : queue -> Symstate.t option
(** Remove a state from the end the owner values {e least} — what a
    work-stealing thief should take: the newest state of the bucket in
    the heap's last slot (with two or more states queued, never the
    minimum while no key's priority has grown since it was last
    checked). *)

val iter : queue -> (Symstate.t -> unit) -> unit
(** Visit every queued state in unspecified order (read-only walks, e.g.
    memory-footprint sampling). *)

val drain : queue -> Symstate.t list
(** Remove and return everything, in pop order (used to retire leftovers
    on budget or plateau stops). *)

val dump_entries : queue -> (Symstate.t * int * int) list * int
(** Checkpoint support: every queued state with its recorded (priority,
    sequence) key — the priority its bucket stored, a lower bound on the
    live one — plus the queue's sequence counter. Non-destructive.
    Restoring these exactly (rather than re-pushing with fresh keys) is
    what keeps future equal-priority tie-breaks identical to the
    uninterrupted run. *)

val restore_entries :
  queue -> (Symstate.t * int * int) list -> hseq:int -> unit
(** Refill a freshly created (empty) queue from {!dump_entries} output:
    entries keep their recorded keys and [hseq] restores the sequence
    counter (a bucket keeps the least priority of its entries). *)
