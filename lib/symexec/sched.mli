(** Path-selection strategies over a mutable per-worker queue.

    The default, {!Min_touch}, is the coverage heuristic of the paper
    (§4.3, after EXE): keep a counter per basic block and always pick the
    state whose current block was executed least, which starves states
    stuck in polling loops.

    The queue is a ring-buffer deque for DFS/BFS/random and, for
    [Min_touch], a lazy binary heap over {e buckets}: the
    states waiting at one key (the engine keys a state by its current
    block) share a priority, so they queue FIFO in one bucket and the
    heap holds one entry per non-empty bucket. Picks are O(1) / O(log b)
    for b waiting blocks, and a block's count bump stales one heap entry,
    not one per state waiting there. The queue is also the unit the
    work-stealing frontier ({!Frontier}) steals from: [steal] removes
    from the end the owner values least.

    Queues are NOT thread-safe on their own; {!Frontier} wraps each one in
    a mutex. *)

type strategy =
  | Min_touch
      (** Prefer the state whose next block has been executed least. Ties
          break FIFO toward the state queued earliest. *)
  | Dfs  (** Newest-first: dive to path ends quickly (LIFO). *)
  | Bfs  (** Oldest-first: breadth over the fork tree (FIFO). *)
  | Random_pick of int  (** Deterministic pseudo-random pick from a seed. *)

type queue

val create :
  strategy -> key:(Symstate.t -> int) -> priority:(int -> int) -> queue
(** [create strategy ~key ~priority] makes an empty queue. [key] names
    what a state's priority depends on (it must not change while the
    state is queued) and [priority] prices a key; both are consulted by
    [Min_touch] only. A key's priority may grow over time —
    the heap re-evaluates lazily — but must never shrink. Pops return
    the state minimizing (live priority of its key, push order). *)

val strategy : queue -> strategy
val length : queue -> int
val is_empty : queue -> bool

val push : queue -> Symstate.t -> unit
(** Add a freshly created (forked/seeded) state. *)

val requeue : queue -> Symstate.t -> unit
(** Re-add a state whose execution quantum expired. For [Dfs] it goes to
    the cold end (the state already had its turn); for [Min_touch] it is
    queued behind every state already waiting, like a fresh push. *)

val pop : queue -> Symstate.t option
(** Remove the state the strategy values most, if any. *)

val steal : queue -> Symstate.t option
(** Remove a state from the end the owner values {e least} — what a
    work-stealing thief should take: for [Dfs] the oldest state (near the
    fork-tree root, likely a big unexplored subtree), for [Min_touch] the
    newest state of the bucket in the heap's last slot (with two or more
    states queued, never the minimum while no key's priority has grown
    since it was last checked). *)

val iter : queue -> (Symstate.t -> unit) -> unit
(** Visit every queued state in unspecified order (read-only walks, e.g.
    memory-footprint sampling). *)

val drain : queue -> Symstate.t list
(** Remove and return everything (used to retire leftovers on budget or
    plateau stops). *)

val dump_entries : queue -> (Symstate.t * int * int) list * int
(** Checkpoint support: every queued state with its recorded (priority,
    sequence) key — the priority its bucket stored, a lower bound on the
    live one — plus the queue's sequence counter. Non-destructive.
    For deques the triples are (state, 0, position) front-to-back and
    the counter is 0. Restoring these exactly (rather than re-pushing
    with fresh keys) is what keeps future equal-priority tie-breaks
    identical to the uninterrupted run. *)

val restore_entries :
  queue -> (Symstate.t * int * int) list -> hseq:int -> unit
(** Refill a freshly created (empty) queue from {!dump_entries} output:
    heap entries keep their recorded keys and [hseq] restores the
    sequence counter (a bucket keeps the least priority of its
    entries); deque entries are appended in list order. *)
