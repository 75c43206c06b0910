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
  r_stats : Ddt_symexec.Exec.stats;
  (** engine counters; the execution tree of all explored paths (§3.5)
      is summarized by [st_states_created] (its size) and
      [st_tree_depth] *)
  r_wall_time : float;
  r_invocations : int;
  r_finished_states : int;
  r_crashdumps : (int * Ddt_trace.Crashdump.t) list;
  (** crashed-state id -> crash dump (when [collect_crashdumps]) *)
  r_reachable_blocks : int;
  (** size of the statically reachable block universe
      ([Ddt_staticx.Icfg]) — the engine's blocks and the coverage
      denominator *)
  r_covered_reachable : int;
  (** executed blocks of that universe *)
  r_never_reached : int list;
  (** sorted image-relative leaders of reachable blocks never executed *)
  r_paths_to_first_bug : int option;
  (** completed paths when the first dynamic bug surfaced *)
  r_incidents : Ddt_checkers.Report.incident list;
  (** quarantined engine incidents ([Ddt_symexec.Guard]): state
      faults and solver verdicts left Unknown — each with a replayable
      script, kept apart from [r_bugs] *)
}

val run : Config.t -> result

val reachable_coverage_percent : result -> float
(** Final dynamic coverage against the statically reachable universe. *)
