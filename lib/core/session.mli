(** A full DDT testing session: load the driver binary into the VM, fool
    the kernel into binding it to the fake symbolic device, exercise every
    workload phase with selective symbolic execution, run the dynamic
    checkers, and collect bugs, traces and coverage.

    This is the programmatic equivalent of the paper's "Test Now" button. *)

type coverage_point = {
  cp_time : float;      (** seconds since session start *)
  cp_steps : int;       (** engine instructions executed so far *)
  cp_blocks : int;      (** cumulative distinct basic blocks *)
}

type result = {
  r_driver : string;
  r_bugs : Ddt_checkers.Report.bug list;
  r_coverage : coverage_point list;      (** chronological *)
  r_total_blocks : int;                  (** static basic-block count *)
  r_stats : Ddt_symexec.Exec.stats;
  r_wall_time : float;
  r_invocations : int;
  r_finished_states : int;
  r_kcalls : int;
  r_tree : Ddt_trace.Tree.t;
  (** the reconstructed execution tree of all explored paths (§3.5) *)
  r_crashdumps : (int * Ddt_trace.Crashdump.t) list;
  (** crashed-state id -> crash dump (when [collect_crashdumps]) *)
  r_reachable_blocks : int;
  (** size of the statically reachable block universe
      ([Ddt_staticx.Icfg]) — the sound coverage denominator, as opposed to
      [r_total_blocks], the linear-sweep over-approximation *)
  r_covered_reachable : int;
  (** executed blocks inside the reachable universe *)
  r_never_reached : int list;
  (** sorted image-relative leaders of reachable blocks never executed *)
  r_static : Ddt_checkers.Report.static_finding list;
  (** pre-analysis findings ([Ddt_staticx.Sfind]); kept apart from
      [r_bugs], never influencing dynamic bug keys *)
  r_paths_to_first_bug : int option;
  (** completed paths when the first dynamic bug surfaced *)
  r_incidents : Ddt_checkers.Report.incident list;
  (** quarantined engine incidents ([Ddt_symexec.Guard]): state
      faults and solver verdicts left Unknown — each with a replayable
      script, kept apart from [r_bugs] *)
  r_checkpoint_failures : int;
  (** checkpoint writes that failed (see Durability below); the
      first failure is also reported on stderr *)
}

val run : Config.t -> result

(** {1 Durability}

    With [Config.checkpoint_every > 0] (and a single worker, fully
    symbolic hardware, no replay script) the session writes a
    checkpoint blob — engine image, phase bases, report sink, query
    cache, session counters — every N engine steps, at quiescent
    scheduler boundaries, via atomic tmp+rename ({!Ddt_solver.Blob}).
    A SIGKILL'd run restarted with {!resume} finishes the interrupted
    phase and the remaining workload, producing the same report the
    uninterrupted run would have: with one worker, byte-identical
    report JSON. Checkpoint writes are best-effort — a full disk
    costs durability, never the run: the first failed write prints one
    stderr line naming the path and the error, and later failures are
    only counted ([r_checkpoint_failures]). *)

val checkpoint_version : int
(** Layout version of checkpoint blobs; {!resume} refuses any other. *)

val checkpoint_driver : string -> (string, string) Stdlib.result
(** Peek a checkpoint file's driver name (to rebuild the matching
    config) without restoring it. Corrupt, truncated or version-skewed
    files are [Error _]. *)

val resume : Config.t -> path:string -> (result, string) Stdlib.result
(** [resume cfg ~path] rebuilds the session over [cfg] (which must name
    the same driver the checkpoint was taken from), restores the
    checkpointed progress, and runs to completion. [Error _] if the
    checkpoint cannot be read, belongs to another driver, was taken from
    a different image (a [--fixed] variant keeps its driver's name) or
    with different exploration settings (annotations, merging,
    workload, budgets, registry, device descriptor), or records a phase
    past [cfg]'s workload; the job count and checkpoint cadence may
    differ. A resumed session keeps checkpointing to the same path. *)

val coverage_percent : result -> float
(** Final dynamic coverage against the linear-sweep block count. *)

val reachable_coverage_percent : result -> float
(** Final dynamic coverage against the statically reachable universe —
    the honest number a session report should lead with. *)
