(** The engine's min-touch path-selection queue.

    Min-touch is the coverage heuristic of the paper (§4.3, after EXE):
    keep a counter per basic block and always pick the state whose
    current block was executed least, which starves states stuck in
    polling loops. Ties break FIFO toward the state queued earliest. It
    is the engine's only search order.

    The states waiting at one key (the engine keys a state by its
    current block) share a priority, so they queue FIFO in one {e bucket}.
    A pick scans the non-empty buckets, reading each key's live priority,
    and takes the head of the least one: no corpus pick sees more than 13
    waiting blocks, so the scan costs what a heap would, and a block's
    count bump touches nothing in the queue. *)

type queue

val create : key:(Symstate.t -> int) -> priority:(int -> int) -> queue
(** [create ~key ~priority] makes an empty queue. [key] names what a
    state's priority depends on (it must not change while the state is
    queued) and [priority] prices a key; it is read afresh at every pick,
    so it may change over time. Pops return the state minimizing (live
    priority of its key, push order). *)

val length : queue -> int

val push : queue -> Symstate.t -> unit
(** Queue a state behind every state already waiting at an equal
    priority — a fresh fork and a quantum-expired state alike. *)

val pop : queue -> Symstate.t option
(** Remove the state of least (live priority, push order), if any. *)

val iter : queue -> (Symstate.t -> unit) -> unit
(** Visit every queued state in unspecified order (read-only walks, e.g.
    memory-footprint sampling). *)

val drain : queue -> Symstate.t list
(** Remove and return everything, in pop order (used to retire leftovers
    on budget or plateau stops). *)
