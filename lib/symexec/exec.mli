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
    replayable script) when any exception escapes — interpreter faults,
    [Stack_overflow], [Out_of_memory], hook and checker exceptions — and
    a solver verdict left Unknown during a state's quantum is recorded
    as an incident too ({!incidents}). An exception outside every
    state's boundary (the scheduler) is an engine bug: it propagates out
    of {!run}. *)

module Expr = Ddt_solver.Expr

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
  leaders:int list -> Ddt_dvm.Image.loaded ->
  Ddt_dvm.Mem.t -> Ddt_hw.Symdev.t -> engine
(** One explorer on the caller's domain, picking states from one
    min-touch queue ({!Sched}, the only search order).

    [leaders] are the sorted, distinct image-relative basic-block
    starts the engine counts coverage and min-touch priorities over —
    the session passes the ICFG's reachable universe
    ([Ddt_staticx.Icfg]). Offsets outside the text section or off an
    instruction slot are ignored.

    Symbolic interrupts (§3.3) are injected exactly when device reads
    are symbolic: a base memory that maps the device concretely (the
    stress baseline) gets neither symbolic reads nor injected
    interrupts. *)

(** {1 Hooks} *)

val set_on_mem_access : engine -> (mem_access -> unit) -> unit
val set_on_state_done : engine -> (Symstate.t -> unit) -> unit
(** Fired for [Returned], [Crashed] and [Exhausted] states (not for
    discarded or fork-retired ones). *)

val set_on_new_block : engine -> (Symstate.t -> int -> unit) -> unit
(** First global execution of a basic block (absolute address). *)

val set_kcall_hooks :
  engine ->
  pre:(Symstate.t -> string -> Ddt_kernel.Mach.t -> unit) ->
  post:(Symstate.t -> string -> Ddt_kernel.Mach.t -> unit) ->
  unit
(** Hooks around each kernel call ({!Ddt_kernel.Kapi.call}), with the
    state in hand. [pre] is where guest-OS-level verification tools (the
    Driver-Verifier analog) observe the driver (§3.1.2); both are where
    interface annotations (§3.4) attach. *)

val set_replay : engine -> Ddt_trace.Replay.script -> unit
(** Replay mode: pin symbolic inputs, fork decisions and interrupt sites
    to a recorded script, making the engine deterministic along that
    path (§3.5). *)


val set_merge_points : engine -> (int -> int option) -> unit
(** Install the merge-point map (absolute block leader -> absolute
    reconvergence pc, normally {!Ddt_staticx.Pdom} plus the image base)
    and so turn state merging on ({!Merge}): a symbolic fork whose arms
    reconverge parks both arms at the join and lifts their
    register/memory differences to [ite]s over the disjoined path
    conditions. The default maps nothing, so no merge token ever opens.
    Bug reports are identical either way. The session installs the map
    unless merging is off or a replay runs (a script follows exactly
    one concrete path). *)

(** {1 Resilience} *)

val incidents : engine -> Guard.incident list
(** Quarantined engine incidents so far, in deterministic order. *)

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

val run : engine -> max_total_steps:int -> unit
(** Explore until the worklist empties, [max_total_steps] instructions
    have run (leftover states are discarded), or no new basic block has
    been covered for 250 000 instructions — the paper's stopping rule
    (§5.2); plateau leftovers are redundant siblings and are dropped
    silently. A state that has run 200 000 instructions is retired as
    [Exhausted] (a hang).

    An exception that escapes outside every state's fault boundary
    propagates. *)

val crashdump : Symstate.t -> note:string -> Ddt_trace.Crashdump.t
(** Snapshot a state as a crash dump: its registers and its
    [Symstate.touched_pages], concretized under the path condition's
    model. *)

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
  (** states ever created, roots and fork children alike: the size of
      the execution tree (§3.5) *)
  st_tree_depth : int;
  (** the deepest state's {!Symstate.depth}: the execution tree's depth
      (0 before the first state) *)
  st_blocks_covered : int;
  st_max_cow_depth : int;
  st_live_words : int;
  (** peak copy-on-write entries across all queued states (sampled) *)
  st_solver : Ddt_solver.Solver.stats;
  (** solver queries/cache-hit/bit-blast counters attributable to this
      engine (snapshot delta since [create]) *)
  st_merged_states : int;       (** sibling states fused at merge points *)
  st_merge_ites : int;          (** register/memory values lifted to ites *)
  st_merge_forks_avoided : int;
  (** forks performed by states that had absorbed siblings — each would
      have been duplicated once per absorbed sibling without merging *)
  st_merge_refusals : int;
  (** fold arrivals that fused with none of the survivors before them,
      because a compatibility check failed against each (differing
      symbolic inputs, injected sites, pending continuations or choices,
      or a kernel call inside an arm); nothing refuses on cost *)
}

val stats : engine -> stats

val steps_now : engine -> int
(** Instructions executed so far — a cheap accessor for hot hooks that
    only need the step counter, not the whole {!stats} record. *)

val block_coverage : engine -> int
(** Number of distinct basic blocks executed so far. *)

val covered_blocks : engine -> int list
(** Absolute leaders of the blocks executed so far, sorted. *)

val uncovered_blocks : engine -> int list
(** Absolute leaders of the blocks never executed so far, sorted. *)
