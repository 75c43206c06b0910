(** The selective symbolic execution engine (§3.2, §4.1 of the paper).

    Driver code (inside the loaded image's text section) is interpreted
    over symbolic expressions; [Kcall]s transfer to native kernel API
    implementations that run concretely against a {!Ddt_kernel.Mach}
    built for the current state. Conditional branches on symbolic values
    fork complete system states; symbolic hardware reads mint fresh
    variables; symbolic interrupts are injected by forking at
    kernel/driver boundary crossings (§4.3).

    The engine is checker-agnostic: it exposes hooks for memory accesses,
    newly covered basic blocks, and terminated states; [ddt_core.Session]
    wires these to the dynamic checkers.

    Exploration is fault tolerant ({!Guard}): every state's step loop
    runs inside a fault boundary that quarantines the state (with its
    replayable script) when an exception escapes — interpreter faults,
    [Stack_overflow], [Out_of_memory], checker exceptions — a crashed
    worker loop is restarted with backoff, and solver budget exhaustions
    during a state's quantum are recorded as incidents ({!incidents}). *)

module Expr = Ddt_solver.Expr

val max_states : int
(** Cap on simultaneously queued states (512); forks past it are
    dropped and counted in [st_states_dropped]. *)

type config = {
  max_steps_per_state : int;   (** per-invocation instruction budget *)
  inject_interrupts : bool;
  concrete_hardware : bool;
  (** route device reads to the concrete MMIO hooks instead of minting
      symbolic values — used by the stress baseline *)
  strategy : Sched.strategy;
  jobs : int;
  (** number of worker domains cooperatively exploring this engine's
      shared frontier ({!Frontier}); 1 (the default) is the classic
      sequential loop with no domain spawns. Workers keep per-domain
      local queues and steal from each other when idle; bug reports stay
      deterministic because keys are path-position-based and the report
      sink dedups by key. *)
  static_guidance : bool;
  (** let the static pre-analysis steer scheduling: when on, the session
      installs a distance-to-uncovered oracle via {!set_distance_fn},
      which keys the {!Sched.Min_dist} strategy and tiebreaks
      [Min_touch]. Off by default; with no oracle installed every
      strategy orders states exactly as before this knob existed. *)
  chaos : Guard.chaos option;
  (** deterministic fault injection for the chaos harness ({!Guard.chaos});
      [None] (the default) injects nothing and costs nothing *)
  state_merging : bool;
  (** fuse sibling states back together at branch post-dominators
      ({!Merge}): a symbolic fork whose arms reconverge — per the
      merge-point map the session installs ({!set_merge_points}) — parks
      both arms at the join and lifts their register/memory differences
      to [ite]s over the disjoined path conditions, collapsing the fork
      subtree into one state. Bug reports are identical either way. On
      by default; replay runs never merge (a script follows exactly one
      concrete path), and with no merge-point map installed the knob has
      no effect. *)
}

val default_config : config

type mem_access = {
  ma_state : Symstate.t;
  ma_pc : int;
  ma_write : bool;
  ma_addr : Expr.t;             (** pre-concretization address expression *)
  ma_conc : int;                (** concretized address actually accessed *)
  ma_width : int;
  ma_constraints : Expr.t list; (** path condition before concretization *)
  ma_sp : int;                  (** stack pointer at the access *)
}

type engine

val create :
  ?config:config -> Ddt_dvm.Image.loaded -> Ddt_dvm.Mem.t ->
  Ddt_hw.Symdev.t -> engine

val config : engine -> config
val loaded : engine -> Ddt_dvm.Image.loaded

(** {1 Hooks} *)

val set_on_mem_access : engine -> (mem_access -> unit) -> unit
val set_on_state_done : engine -> (Symstate.t -> unit) -> unit
(** Fired for [Returned], [Crashed] and [Exhausted] states (not for
    discarded or fork-retired ones). *)

val set_on_new_block : engine -> (Symstate.t -> int -> unit) -> unit
(** First global execution of a basic block (absolute address). *)

val set_annotations :
  engine ->
  pre:(string -> Ddt_kernel.Kstate.t -> Ddt_kernel.Mach.t -> unit) ->
  post:(string -> Ddt_kernel.Kstate.t -> Ddt_kernel.Mach.t -> unit) ->
  unit

val set_kcall_hooks :
  engine ->
  enter:(Symstate.t -> string -> Ddt_kernel.Mach.t -> unit) ->
  leave:(Symstate.t -> string -> Ddt_kernel.Mach.t -> unit) ->
  unit
(** Checker taps around each kernel call, with the state in hand — this is
    where guest-OS-level verification tools (the Driver-Verifier analog)
    observe the driver (§3.1.2). *)

val set_replay : engine -> Ddt_trace.Replay.script -> unit
(** Replay mode: pin symbolic inputs, fork decisions and interrupt sites
    to a recorded script, making the engine deterministic along that
    path (§3.5). *)

val set_distance_fn : engine -> (int -> int) -> unit
(** Install the distance-to-uncovered oracle (absolute pc -> ICFG
    distance). Must be monotone non-decreasing per pc over the session
    (covering code only raises distances) — the scheduler's lazy heap
    relies on priorities never shrinking. The default oracle is
    [fun _ -> 0]. *)

val set_merge_points : engine -> (int -> int option) -> unit
(** Install the merge-point map (absolute block leader -> absolute
    reconvergence pc, normally {!Ddt_staticx.Pdom} plus the image base).
    The default maps nothing, so no merge token ever opens even with
    [config.state_merging] on. *)

(** {1 Resilience} *)

type pressure = {
  pr_live_states : int;   (** states currently queued in the frontier *)
  pr_cow_depth : int;     (** deepest copy-on-write chain seen in the sweep *)
  pr_live_words : int;    (** live copy-on-write words across the frontier *)
}
(** The resource picture shown to the governor, sampled every 64 picks
    alongside the existing live-words accounting. *)

val set_governor : engine -> (pressure -> int) -> unit
(** Install a resource governor (policy lives in [Ddt_core.Governor]).
    The callback returns how many queued states the engine should
    concretize-and-retire right now: victims are chosen
    deterministically — worst scheduler priority first, then largest
    footprint, then youngest — their pending inputs are pinned to the
    cached model (the discard reason records the witness), and they are
    retired quietly, well before the hard [max_states] cap would drop
    fresh forks. *)

val incidents : engine -> Guard.incident list
(** Quarantined engine incidents so far, in deterministic order. *)

val worker_restarts : engine -> int
val soft_retired : engine -> int

val rehomed_states : engine -> int
(** States rescued from permanently-dead workers' queues by the reaper
    (an idle worker re-homes a dead sibling's queue onto itself). Also
    surfaced as {!stats}' [st_rehomed]. *)

val replay_script :
  ?extra:Expr.t list -> ?constraints:Expr.t list -> Symstate.t ->
  Ddt_trace.Replay.script
(** Derive the concrete inputs and system events that drive the driver
    down this state's path, by solving its path condition ([constraints]
    overrides it, e.g. with a pre-concretization snapshot). [extra] adds
    witness constraints (e.g. "the symbolic address actually escapes its
    region") so the evidence triggers the defect, not merely reaches it. *)

(** {1 Driving} *)

val new_root_state : engine -> Ddt_kernel.Kstate.t -> Symstate.t

val start_invocation :
  engine -> Symstate.t -> name:string -> addr:int -> args:Expr.t list -> unit
(** Prepare the state to run one driver entry point (args may be
    symbolic) and queue it. *)

val fork_of : engine -> Symstate.t -> Symstate.t
(** Fork a state for reuse as the base of another invocation (the child's
    status is cleared). *)

val start_timer_fire : engine -> Symstate.t -> timer_addr:int -> unit
(** Fire a due timer on this state as a top-level DPC invocation. *)

val start_interrupt_fire : engine -> Symstate.t -> unit
(** Deliver one interrupt at top level (between invocations) — the safe
    timing a concrete stress tool exercises, as opposed to the
    boundary-crossing injection of symbolic interrupts. *)

val run :
  engine -> ?max_total_steps:int -> ?plateau_steps:int -> ?start_steps:int ->
  unit -> unit
(** Explore until the worklist empties, the step budget is exhausted
    (leftover states are marked [Exhausted]), or no new basic block has
    been covered for [plateau_steps] instructions — the paper's stopping
    rule (§5.2); plateau leftovers are redundant siblings and are dropped
    silently.

    [start_steps] resumes a checkpointed run: it overrides the budget
    baseline (normally [total_steps] at entry) with the original run's,
    and keeps the restored plateau clock instead of resetting it — so
    the resumed run stops exactly where the uninterrupted one would. *)

val execution_tree : engine -> Ddt_trace.Tree.t
(** The tree of every explored path (§3.5): nodes are states, children are
    fork successors, labels carry the terminal status. *)

val crashdump :
  engine -> Symstate.t -> note:string -> Ddt_trace.Crashdump.t
(** Snapshot a state as a crash dump: registers and touched memory pages
    concretized under the path condition's model. *)

val finished : engine -> Symstate.t list
(** Terminated states, in completion order (newest first). *)

val drain_finished : engine -> Symstate.t list
(** Like {!finished} but clears the list — used between workload phases. *)

(** {1 Helpers for the exerciser and annotations} *)

val write_symbolic_bytes :
  engine -> Symstate.t -> addr:int -> len:int -> origin:string -> unit

val fresh_symbolic :
  engine -> Symstate.t -> name:string -> origin:string -> Expr.width -> Expr.t

val concretize : Symstate.t -> Expr.t -> string -> int

(** {1 Statistics} *)

type stats = {
  st_total_steps : int;
  st_states_created : int;
  st_states_dropped : int;     (** children not queued due to max_states *)
  st_blocks_covered : int;
  st_max_cow_depth : int;
  st_live_words : int;
  (** peak copy-on-write entries across all queued states (sampled) *)
  st_steals : int;
  (** successful cross-worker frontier steals (0 when [jobs = 1]) *)
  st_workers : int;            (** frontier worker slots ([config.jobs]) *)
  st_rehomed : int;
  (** states the reaper re-homed from permanently dead workers' queues
      onto a live worker *)
  st_incidents : int;          (** quarantined engine incidents *)
  st_worker_restarts : int;    (** supervisor worker-loop restarts *)
  st_soft_retired : int;       (** states retired by the resource governor *)
  st_solver : Ddt_solver.Solver.stats;
  (** solver queries/cache-hit/bit-blast counters attributable to this
      engine (snapshot delta since [create]; exact only while no other
      engine runs concurrently — the counters are process-global) *)
  st_merged_states : int;       (** sibling states fused at merge points *)
  st_merge_ites : int;          (** register/memory values lifted to ites *)
  st_merge_forks_avoided : int;
  (** forks performed by states that had absorbed siblings — each would
      have been duplicated once per absorbed sibling without merging *)
  st_merge_refusals : int;      (** fusions refused (context or cost) *)
}

val stats : engine -> stats

val steps_now : engine -> int
(** Instructions executed so far — a cheap accessor for hot hooks that
    only need the step counter, not the whole {!stats} record. *)

val steals : engine -> int
(** Successful cross-worker frontier steals so far. *)
val block_coverage : engine -> int
(** Number of distinct basic blocks executed so far. *)

val covered_blocks : engine -> int list

(** {1 Checkpointing}

    The engine's whole mutable universe — frontier queues with exact
    scheduler keys, merge pool, guard ledger, finished states, lineage, coverage, counters, the device's reads
    ledger — as one marshal-safe value. Only meaningful at quiescent
    points: the [jobs = 1] pick boundary where the checkpoint hook
    fires, or between workload phases. Config, loaded image, base
    memory and hooks are {e not} captured; a resume re-runs session
    setup on a fresh engine and then pours the image in. The image must
    be marshalled in a single blob so the physical sharing that sibling
    states and merge-token bases rely on survives. *)

type image

val checkpoint_image : engine -> image
(** Non-destructive. Block-execution counts are recorded as a sorted
    (leader pc, count) list of the blocks that ran. *)

val revive_image : engine -> Symstate.image -> Symstate.t
(** Rebuild one session-owned state (e.g. a workload-phase base) over
    this engine's base memory and device, with the engine's sym-read
    hook installed. *)

val restore_image : engine -> image -> unit
(** Pour a checkpoint into a freshly created engine for the same image
    and configuration. States get live memories over the engine's base
    image and device, and fresh sym-read hooks. *)

val set_checkpoint_hook : engine -> (unit -> unit) -> unit
(** Install a callback invoked by worker 0 at every pick boundary while
    [config.jobs = 1] (the only mid-run quiescent points). The callback
    owns its cadence. Never fired with [jobs > 1] — multicore runs
    checkpoint between phases only. *)

val run_start : engine -> int
(** The running (or last) [run]'s budget baseline — [total_steps] at
    its entry — for checkpoints ({!run}'s [start_steps]). *)
