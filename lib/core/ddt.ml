module Report = Ddt_checkers.Report

let test_driver = Session.run

let pp_report fmt (r : Session.result) =
  Format.fprintf fmt "=== DDT report for %s ===@." r.Session.r_driver;
  if r.Session.r_bugs = [] then Format.fprintf fmt "No bugs found.@."
  else begin
    Format.fprintf fmt "%d bug(s) found:@." (List.length r.Session.r_bugs);
    List.iteri
      (fun i b -> Format.fprintf fmt "%2d. %a@." (i + 1) Report.pp_bug b)
      r.Session.r_bugs
  end;
  (match r.Session.r_static with
   | [] -> ()
   | fs ->
       Format.fprintf fmt "%d static finding(s):@." (List.length fs);
       List.iteri
         (fun i f ->
           Format.fprintf fmt "%2d. %a@." (i + 1) Report.pp_static_finding f)
         fs);
  let stats = r.Session.r_stats in
  Format.fprintf fmt
    "coverage: %d/%d reachable blocks (%.1f%%), %d/%d by linear sweep | \
     %d invocations | %d states | %d instructions | %.2fs@."
    r.Session.r_covered_reachable r.Session.r_reachable_blocks
    (Session.reachable_coverage_percent r)
    (match List.rev r.Session.r_coverage with
     | [] -> 0
     | p :: _ -> p.Session.cp_blocks)
    r.Session.r_total_blocks
    r.Session.r_invocations
    stats.Ddt_symexec.Exec.st_states_created
    stats.Ddt_symexec.Exec.st_total_steps r.Session.r_wall_time;
  (match r.Session.r_never_reached with
   | [] -> ()
   | nr ->
       Format.fprintf fmt "never reached: %d reachable block(s): %s@."
         (List.length nr)
         (String.concat " "
            (List.map (Printf.sprintf "0x%x")
               (if List.length nr > 12 then
                  List.filteri (fun i _ -> i < 12) nr
                else nr)
             @ (if List.length nr > 12 then [ "..." ] else []))));
  (* States shed at the hard cap mean lost (unexplored) forks: a report
     that hides this overstates its own completeness. *)
  if stats.Ddt_symexec.Exec.st_states_dropped > 0 then
    Format.fprintf fmt
      "warning: %d state(s) dropped at the engine's %d-state frontier cap \
       — results may be incomplete (configure the governor to retire \
       states before the cap)@."
      stats.Ddt_symexec.Exec.st_states_dropped Ddt_symexec.Exec.max_states;
  if stats.Ddt_symexec.Exec.st_soft_retired > 0 then
    Format.fprintf fmt
      "governor: %d state(s) concretized and retired under resource \
       pressure (%d trip(s))@."
      stats.Ddt_symexec.Exec.st_soft_retired r.Session.r_governor_trips;
  if r.Session.r_checkpoint_failures > 0 then
    Format.fprintf fmt
      "warning: %d checkpoint write(s) failed — an interrupted run could \
       not resume from them@."
      r.Session.r_checkpoint_failures;
  if stats.Ddt_symexec.Exec.st_merged_states > 0
     || stats.Ddt_symexec.Exec.st_merge_refusals > 0
  then
    Format.fprintf fmt
      "merge: %d state(s) fused at post-dominators, %d value(s) lifted to \
       ite, %d fork(s) avoided, %d refusal(s)@."
      stats.Ddt_symexec.Exec.st_merged_states
      stats.Ddt_symexec.Exec.st_merge_ites
      stats.Ddt_symexec.Exec.st_merge_forks_avoided
      stats.Ddt_symexec.Exec.st_merge_refusals;
  let sv = stats.Ddt_symexec.Exec.st_solver in
  Format.fprintf fmt
    "solver: %d queries, %d group solves, %.0f%% cache hits, %d bit-blasts@."
    sv.Ddt_solver.Solver.s_queries sv.Ddt_solver.Solver.s_group_solves
    (100.0 *. Ddt_solver.Solver.cache_hit_rate sv)
    sv.Ddt_solver.Solver.s_bitblast_solves;
  if sv.Ddt_solver.Solver.s_exhaustions > 0 then
    Format.fprintf fmt
      "solver retries: %d budget exhaustion(s), %d escalated retries, %d \
       recovered@."
      sv.Ddt_solver.Solver.s_exhaustions sv.Ddt_solver.Solver.s_retries
      sv.Ddt_solver.Solver.s_retry_recovered;
  if stats.Ddt_symexec.Exec.st_workers > 1 then
    Format.fprintf fmt
      "parallel: %d workers | %d steals | %d renamed cache hits | \
       %d cross-worker cache hits@."
      stats.Ddt_symexec.Exec.st_workers stats.Ddt_symexec.Exec.st_steals
      sv.Ddt_solver.Solver.s_cache_renamed_hits
      sv.Ddt_solver.Solver.s_cache_cross_worker_hits;
  if stats.Ddt_symexec.Exec.st_rehomed > 0 then
    Format.fprintf fmt
      "dead-worker recovery: %d state(s) re-homed@."
      stats.Ddt_symexec.Exec.st_rehomed;
  (* Engine incidents: faults of the testing engine itself, quarantined
     by the guard instead of killing the session. *)
  (match r.Session.r_incidents with
  | [] -> ()
  | incs ->
      Format.fprintf fmt
        "%d engine incident(s) quarantined (%d worker restart(s)):@."
        (List.length incs) stats.Ddt_symexec.Exec.st_worker_restarts;
      List.iteri
        (fun i inc ->
          Format.fprintf fmt "%2d. %a@." (i + 1) Report.pp_incident inc)
        incs)

let pp_bug_detail fmt (b : Report.bug) =
  Format.fprintf fmt "%a@.--- execution trace ---@.%s@." Report.pp_bug b
    (Ddt_trace.Event.summarize b.Report.b_events)
