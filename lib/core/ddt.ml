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
  let stats = r.Session.r_stats in
  Format.fprintf fmt
    "coverage: %d/%d reachable blocks (%.1f%%) | %d invocations | \
     %d states | %d instructions | %.2fs@."
    r.Session.r_covered_reachable r.Session.r_reachable_blocks
    (Session.reachable_coverage_percent r)
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
  (* Engine incidents: faults of the testing engine itself, quarantined
     by the guard instead of killing the session. *)
  (match r.Session.r_incidents with
  | [] -> ()
  | incs ->
      Format.fprintf fmt "%d engine incident(s) quarantined:@."
        (List.length incs);
      List.iteri
        (fun i inc ->
          Format.fprintf fmt "%2d. %a@." (i + 1) Report.pp_incident inc)
        incs)

let pp_bug_detail fmt (b : Report.bug) =
  Format.fprintf fmt "%a@.--- execution trace ---@.%s@." Report.pp_bug b
    (Ddt_trace.Event.summarize ~mem_accesses:b.Report.b_mem_accesses
       b.Report.b_events)
