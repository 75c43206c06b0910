(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5), plus engine micro-benchmarks.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table2    # one experiment

   Experiments: table1 table2 fig2 fig3 stress sdv synthetic ablation
   sched parallel memory solver micro. Absolute numbers differ from the
   paper (the substrate is a simulator, not a 2 GHz Xeon running Windows
   XP); the shapes are what each experiment checks.

   --json additionally writes BENCH_solver.json from the solver
   experiment, for tracking the perf trajectory across commits. *)

module Corpus = Ddt_drivers.Corpus
module Report = Ddt_checkers.Report
module Session = Ddt_core.Session
module Config = Ddt_core.Config
module Exec = Ddt_symexec.Exec

(* Set by --json: write the per-driver numbers of the solver and parallel
   experiments to BENCH_*.json so the perf trajectory can be tracked
   across commits. *)
let json_mode = ref false

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

let run_ddt ?(fixed = false) ?(use_annotations = true) entry =
  Ddt_core.Ddt.test_driver (Corpus.config ~fixed ~use_annotations entry)

(* Count how many of the driver's expected Table 2 defects the report
   covers (by bug kind, with multiplicity). *)
let defects_covered entry (bugs : Report.bug list) =
  let found = List.map (fun b -> b.Report.b_kind) bugs in
  let remaining = ref found in
  List.fold_left
    (fun acc (kind, _) ->
      if List.mem kind !remaining then begin
        remaining :=
          (let rec drop = function
             | [] -> []
             | k :: rest -> if k = kind then rest else k :: drop rest
           in
           drop !remaining);
        acc + 1
      end
      else acc)
    0 entry.Corpus.expected_bugs

(* --- Table 1: characteristics of the driver corpus ---------------------- *)

let table1 () =
  section "Table 1: Characteristics of drivers used to evaluate DDT";
  Printf.printf "%-22s %12s %12s %10s %10s %8s\n" "Tested Driver" "Binary"
    "Code seg." "Functions" "Kernel fns" "Source?";
  List.iter
    (fun e ->
      let s = Ddt_dvm.Image.stats (e.Corpus.image ()) in
      Printf.printf "%-22s %10d B %10d B %10d %10d %8s\n" e.Corpus.name
        s.Ddt_dvm.Image.binary_size s.Ddt_dvm.Image.code_size
        s.Ddt_dvm.Image.num_functions s.Ddt_dvm.Image.num_kernel_imports
        (if e.Corpus.short = "pro100" then "Yes" else "No"))
    Corpus.all

(* --- Table 2: bugs found -------------------------------------------------- *)

let table2 () =
  section "Table 2: Bugs discovered by DDT (and fixed-variant control)";
  Printf.printf "%-22s %-18s %s\n" "Tested Driver" "Bug Type" "Description";
  let total = ref 0 in
  let covered = ref 0 and expected = ref 0 in
  List.iter
    (fun e ->
      let r = run_ddt e in
      total := !total + List.length r.Session.r_bugs;
      covered := !covered + defects_covered e r.Session.r_bugs;
      expected := !expected + List.length e.Corpus.expected_bugs;
      List.iter
        (fun b ->
          Printf.printf "%-22s %-18s %s\n" e.Corpus.name
            (Report.string_of_kind b.Report.b_kind)
            b.Report.b_message)
        r.Session.r_bugs)
    Corpus.all;
  Printf.printf
    "\ntotal findings: %d | seeded Table 2 defects covered: %d/%d (paper: 14)\n"
    !total !covered !expected;
  let fps = ref 0 in
  List.iter
    (fun e ->
      let r = run_ddt ~fixed:true e in
      fps := !fps + List.length r.Session.r_bugs)
    Corpus.all;
  Printf.printf "false positives on the fixed variants: %d (paper: 0)\n" !fps

(* --- Figures 2 and 3: coverage over time ---------------------------------- *)

let coverage_drivers = [ "rtl8029"; "pro100"; "ac97" ]

let figures () =
  section "Figure 2: relative basic-block coverage over time";
  let runs =
    List.map
      (fun short ->
        let e = Corpus.find short in
        (e, run_ddt e))
      coverage_drivers
  in
  List.iter
    (fun (e, r) ->
      Printf.printf "\n%s (%d basic blocks total):\n  %-10s %-12s %s\n"
        e.Corpus.name r.Session.r_total_blocks "time(s)" "instructions"
        "coverage";
      let total = float_of_int r.Session.r_total_blocks in
      (* Sample the curve at ~12 evenly spaced points. *)
      let points = r.Session.r_coverage in
      let n = List.length points in
      let step = max 1 (n / 12) in
      List.iteri
        (fun i (p : Session.coverage_point) ->
          if i mod step = 0 || i = n - 1 then
            Printf.printf "  %-10.3f %-12d %5.1f%%\n" p.Session.cp_time
              p.Session.cp_steps
              (100.0 *. float_of_int p.Session.cp_blocks /. total))
        points;
      Printf.printf
        "  final: %.1f%% (paper reaches its plateau within minutes)\n"
        (Session.coverage_percent r))
    runs;
  section "Figure 3: absolute covered basic blocks over time";
  List.iter
    (fun (e, r) ->
      Printf.printf "\n%s:\n  %-10s %s\n" e.Corpus.name "time(s)" "blocks";
      let points = r.Session.r_coverage in
      let n = List.length points in
      let step = max 1 (n / 12) in
      List.iteri
        (fun i (p : Session.coverage_point) ->
          if i mod step = 0 || i = n - 1 then
            Printf.printf "  %-10.3f %d\n" p.Session.cp_time
              p.Session.cp_blocks)
        points)
    runs

(* --- E1: the stress (Driver Verifier) baseline ----------------------------- *)

let stress () =
  section
    "E1: concrete stress baseline vs DDT (paper: Driver Verifier found \
     none of the 14 bugs)";
  Printf.printf "%-22s %14s %14s\n" "Driver" "DDT defects" "stress defects";
  let ddt_total = ref 0 and stress_total = ref 0 in
  List.iter
    (fun e ->
      let d = run_ddt e in
      let s = Ddt_baseline.Stress.run ~runs:10 (Corpus.config e) in
      let dc = defects_covered e d.Session.r_bugs in
      let sc = defects_covered e s.Ddt_baseline.Stress.s_bugs in
      ddt_total := !ddt_total + dc;
      stress_total := !stress_total + sc;
      Printf.printf "%-22s %14d %14d\n" e.Corpus.name dc sc)
    Corpus.all;
  Printf.printf "\ntotals: DDT %d, stress %d (paper shape: DDT 14, stress 0)\n"
    !ddt_total !stress_total

(* --- E2: SDV sample driver -------------------------------------------------- *)

let sdv_cfg image =
  Config.make ~driver_name:"sdv_sample" ~image ~driver_class:Config.Network
    ~descriptor:Ddt_drivers.Sdv_sample.descriptor
    ~registry:Ddt_drivers.Sdv_sample.registry ()

let contains (b : Report.bug) needle =
  let msg = b.Report.b_message in
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

(* The 8 seeded defects, as report-marker predicates. *)
let sample_defect_markers : (string * (Report.bug -> bool)) list =
  [ ("double-acquire", fun b -> contains b "deadlock");
    ("extra-release", fun b -> contains b "not held");
    ("forgotten-release", fun b -> contains b "still held");
    ("wrong-variant", fun b -> contains b "IRQL-raising variant");
    ("wrong-irql", fun b -> contains b "IRQL_NOT_LESS_OR_EQUAL");
    ("out-of-order", fun b -> contains b "out-of-order");
    ("config-leak", fun b -> b.Report.b_kind = Report.Resource_leak);
    ("double-free", fun b -> contains b "double free") ]

let sdv () =
  section
    "E2: SDV-style static analysis vs DDT on the sample driver (8 seeded \
     bugs; paper: SDV 8 bugs in 12 min, DDT 8 in 4 min)";
  let image = Ddt_drivers.Sdv_sample.image () in
  let t0 = Unix.gettimeofday () in
  let d = Ddt_core.Ddt.test_driver (sdv_cfg image) in
  let ddt_time = Unix.gettimeofday () -. t0 in
  let covered =
    List.filter
      (fun (_, pred) -> List.exists pred d.Session.r_bugs)
      sample_defect_markers
  in
  let st = Ddt_baseline.Static.analyze ~name:"sdv_sample" image in
  Printf.printf "DDT:    %d/8 seeded defects (%d findings) in %.2fs\n"
    (List.length covered)
    (List.length d.Session.r_bugs)
    ddt_time;
  Printf.printf "static: %d findings in %.3fs\n"
    (List.length st.Ddt_baseline.Static.st_findings)
    st.Ddt_baseline.Static.st_wall_time;
  let d_fixed =
    Ddt_core.Ddt.test_driver (sdv_cfg (Ddt_drivers.Sdv_sample.fixed_image ()))
  in
  let st_fixed =
    Ddt_baseline.Static.analyze ~name:"sdv_sample-fixed"
      (Ddt_drivers.Sdv_sample.fixed_image ())
  in
  Printf.printf "fixed variant: DDT %d, static %d (both should be 0)\n"
    (List.length d_fixed.Session.r_bugs)
    (List.length st_fixed.Ddt_baseline.Static.st_findings);
  Printf.printf
    "(note: our SLAM-analog is a lightweight dataflow pass, so its absolute \
     time\n is tiny; the preserved shape is detection capability, see \
     EXPERIMENTS.md)\n"

(* --- E3: synthetic bugs ------------------------------------------------------ *)

let synthetic () =
  section
    "E3: five synthetic bugs (paper: SDV finds 2 + 1 false positive; DDT \
     finds 5 + 0)";
  Printf.printf "%-20s %6s %18s\n" "bug" "DDT" "static";
  let ddt_found = ref 0 and st_found = ref 0 and st_fp = ref 0 in
  List.iter
    (fun (name, img) ->
      let d = Ddt_core.Ddt.test_driver (sdv_cfg img) in
      let s = Ddt_baseline.Static.analyze ~name img in
      let ddt_hit = d.Session.r_bugs <> [] in
      let rule_of = function
        | "deadlock" -> "double-acquire"
        | "out_of_order" -> "out-of-order"
        | "extra_release" -> "extra-release"
        | "forgotten_release" -> "forgotten-release"
        | "wrong_irql" -> "wrong-irql"
        | _ -> "?"
      in
      let hits, fps =
        List.partition
          (fun f -> f.Ddt_baseline.Absint.fi_rule = rule_of name)
          s.Ddt_baseline.Static.st_findings
      in
      if ddt_hit then incr ddt_found;
      if hits <> [] then incr st_found;
      st_fp := !st_fp + List.length fps;
      Printf.printf "%-20s %6s %18s\n" name
        (if ddt_hit then "found" else "missed")
        (match hits, fps with
         | [], [] -> "missed"
         | [], _ -> Printf.sprintf "missed (+%d FP)" (List.length fps)
         | _, [] -> "found"
         | _, _ -> Printf.sprintf "found (+%d FP)" (List.length fps)))
    (Ddt_drivers.Sdv_sample.synthetic_images ());
  Printf.printf
    "\ntotals: DDT %d/5 + 0 FP | static %d/5 + %d FP (paper: 5+0 vs 2+1)\n"
    !ddt_found !st_found !st_fp

(* --- E4: annotation ablation -------------------------------------------------- *)

let ablation () =
  section
    "E4: annotations on/off (paper: races and hardware bugs survive; \
     leaks and segfaults are lost)";
  Printf.printf "%-22s %-34s %s\n" "Driver" "with annotations"
    "without annotations";
  let kinds bugs =
    List.map (fun b -> Report.string_of_kind b.Report.b_kind) bugs
    |> List.sort_uniq compare |> String.concat "+"
  in
  List.iter
    (fun e ->
      let w = run_ddt e in
      let wo = run_ddt ~use_annotations:false e in
      Printf.printf "%-22s %-34s %s\n" e.Corpus.name
        (Printf.sprintf "%d [%s]" (List.length w.Session.r_bugs)
           (kinds w.Session.r_bugs))
        (Printf.sprintf "%d [%s]" (List.length wo.Session.r_bugs)
           (kinds wo.Session.r_bugs)))
    Corpus.all

(* --- E5: memory behaviour ------------------------------------------------------ *)

let memory () =
  section "E5: state memory stays bounded (paper: prototype capped at 4 GB)";
  Printf.printf "%-22s %8s %8s %10s %10s %12s\n" "Driver" "states" "dropped"
    "cow depth" "live words" "major words";
  List.iter
    (fun e ->
      let before = (Gc.stat ()).Gc.live_words in
      let r = run_ddt e in
      let s = r.Session.r_stats in
      let after = (Gc.stat ()).Gc.live_words in
      Printf.printf "%-22s %8d %8d %10d %10d %12d\n" e.Corpus.name
        s.Exec.st_states_created s.Exec.st_states_dropped
        s.Exec.st_max_cow_depth s.Exec.st_live_words
        (max 0 (after - before)))
    Corpus.all

(* --- scheduler ablation ---------------------------------------------------------- *)

let sched () =
  section
    "Scheduler ablation: coverage under a tight budget per search strategy      (the EXE-style min-touch heuristic is the paper's default, §4.3)";
  Printf.printf "%-14s %10s %10s %8s\n" "strategy" "blocks" "of total" "bugs";
  let entry = Corpus.find "pro1000" in
  List.iter
    (fun (name, strategy) ->
      let exec_config =
        { Exec.default_config with Exec.strategy } in
      let cfg =
        { (Corpus.config entry) with
          Config.exec_config;
          max_total_steps = 40_000;
          plateau_steps = 35_000 }
      in
      let r = Ddt_core.Ddt.test_driver cfg in
      let covered =
        match List.rev r.Session.r_coverage with
        | [] -> 0
        | p :: _ -> p.Session.cp_blocks
      in
      Printf.printf "%-14s %10d %9.1f%% %8d\n" name covered
        (100.0 *. float_of_int covered /. float_of_int r.Session.r_total_blocks)
        (List.length r.Session.r_bugs))
    [ ("min-touch", Ddt_symexec.Sched.Min_touch);
      ("dfs", Ddt_symexec.Sched.Dfs);
      ("bfs", Ddt_symexec.Sched.Bfs);
      ("random", Ddt_symexec.Sched.Random_pick 7) ];
  Printf.printf
    "\n(min-touch -- the paper's default -- leads or ties here and is the \
     strategy that cannot be trapped by a device polling loop; dfs trails \
     by herding on fork siblings; at realistic budgets all strategies \
     converge under the coverage-plateau rule)\n"

(* --- parallel exploration (the paper's future-work direction, delivered) --------- *)

(* Set by --quick: a smoke-test subset of the parallel experiment for
   `make check` — two drivers, tight step budgets. *)
let quick_mode = ref false

type parallel_row = {
  pr_driver : string;
  pr_bugs : int;
  pr_walls : (int * float) list;       (* shared-frontier jobs -> wall s *)
  pr_steals : int;                     (* at the highest worker count *)
  pr_hit_rate : float;                 (* solver cache, highest-jobs run *)
  pr_cross_hits : int;                 (* cross-worker cache hits, ditto *)
  pr_bugs_match : bool;                (* all worker counts agree with 1 *)
}

let write_parallel_json rows path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "{\n  \"experiment\": \"parallel\",\n";
  pr "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  pr
    "  \"note\": \"shared-frontier: one session, N cooperating domains, \
     the fork tree explored once. On a host with fewer cores than \
     workers, same-tree wall times barely change with the worker \
     count.\",\n";
  pr "  \"drivers\": [\n";
  List.iteri
    (fun i r ->
      let walls =
        String.concat ", "
          (List.map
             (fun (j, w) -> Printf.sprintf "\"sf%d_wall_s\": %.4f" j w)
             r.pr_walls)
      in
      let seq = try List.assoc 1 r.pr_walls with Not_found -> 0.0 in
      let hi =
        List.fold_left (fun _ (_, w) -> w) 0.0 r.pr_walls
      in
      pr
        "    {\"driver\": %S, \"bugs\": %d, %s,\n     \"sf_steals\": %d, \
         \"cache_hit_rate\": %.4f, \"cross_worker_hits\": %d,\n     \
         \"speedup_sf_vs_seq\": %.3f, \"bugs_match\": %b}%s\n"
        r.pr_driver r.pr_bugs walls
        r.pr_steals r.pr_hit_rate r.pr_cross_hits
        (if hi > 0.0 then seq /. hi else 1.0)
        r.pr_bugs_match
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pr "  ]\n}\n";
  close_out oc

let parallel () =
  let module Sv = Ddt_solver.Solver in
  section
    (if !quick_mode then
       "Parallel exploration smoke test (--quick): shared frontier, 2 \
        drivers, tight budgets"
     else
       "Parallel symbolic execution (par 6.1): one session's fork tree \
        explored by cooperating domains (shared work-stealing frontier + \
        shared sharded query cache)");
  let drivers =
    if !quick_mode then [ "rtl8029"; "pcnet" ]
    else List.map (fun e -> e.Corpus.short) Corpus.all
  in
  let job_counts = if !quick_mode then [ 1; 2 ] else [ 1; 2; 4 ] in
  let config short jobs =
    let cfg = Corpus.config (Corpus.find short) in
    let cfg =
      { cfg with Config.exec_config = { cfg.Config.exec_config with Exec.jobs } }
    in
    if !quick_mode then
      { cfg with Config.max_total_steps = 60_000; plateau_steps = 50_000 }
    else cfg
  in
  let keys (r : Session.result) =
    List.sort compare (List.map (fun b -> b.Report.b_key) r.Session.r_bugs)
  in
  Printf.printf "%-16s %5s %10s %8s %6s %6s %6s\n" "Driver" "jobs"
    "wall(s)" "steals" "hit%" "xhits" "match";
  let rows =
    List.map
      (fun short ->
        let base = ref [] in
        let walls = ref [] in
        let last = ref None in
        List.iter
          (fun jobs ->
            let s0 = Sv.stats () in
            let t0 = Unix.gettimeofday () in
            let r = Session.run (config short jobs) in
            let wall = Unix.gettimeofday () -. t0 in
            let sd = Sv.diff_stats (Sv.stats ()) s0 in
            if jobs = 1 then base := keys r;
            walls := (jobs, wall) :: !walls;
            last := Some (r, sd);
            Printf.printf "%-16s %5d %10.2f %8d %5.1f%% %6d %6s\n" short
              jobs wall r.Session.r_stats.Exec.st_steals
              (100.0 *. Sv.cache_hit_rate sd)
              sd.Sv.s_cache_cross_worker_hits
              (if keys r = !base then "yes" else "NO"))
          job_counts;
        let r_last, sd_last = Option.get !last in
        {
          pr_driver = short;
          pr_bugs = List.length r_last.Session.r_bugs;
          pr_walls = List.rev !walls;
          pr_steals = r_last.Session.r_stats.Exec.st_steals;
          pr_hit_rate = Sv.cache_hit_rate sd_last;
          pr_cross_hits = sd_last.Sv.s_cache_cross_worker_hits;
          pr_bugs_match = keys r_last = !base;
        })
      drivers
  in
  let matches = List.filter (fun r -> r.pr_bugs_match) rows in
  Printf.printf
    "\nbug reports identical across worker counts on %d/%d drivers | \
     total cross-worker cache hits %d\n"
    (List.length matches) (List.length rows)
    (List.fold_left (fun acc r -> acc + r.pr_cross_hits) 0 rows);
  if !json_mode && not !quick_mode then begin
    write_parallel_json rows "BENCH_parallel.json";
    Printf.printf "wrote BENCH_parallel.json\n"
  end

(* --- solver acceleration: slicing + query cache ---------------------------------- *)

type solver_row = {
  sr_driver : string;
  sr_base : Ddt_solver.Solver.stats;
  sr_base_wall : float;
  sr_base_bugs : string list;
  sr_accel : Ddt_solver.Solver.stats;
  sr_accel_wall : float;
  sr_accel_bugs : string list;
}

let write_solver_json rows path =
  let oc = open_out path in
  let module Sv = Ddt_solver.Solver in
  let pr fmt = Printf.fprintf oc fmt in
  let stats_json (s : Sv.stats) wall bugs =
    Printf.sprintf
      "{\"queries\": %d, \"group_solves\": %d, \"cache_exact_hits\": %d, \
       \"cache_subset_unsat_hits\": %d, \"cache_model_reuse_hits\": %d, \
       \"cache_misses\": %d, \"cache_hit_rate\": %.4f, \
       \"interval_solves\": %d, \"bitblast_solves\": %d, \
       \"cache_evictions\": %d, \"wall_s\": %.4f, \"bugs\": %d}"
      s.Sv.s_queries s.Sv.s_group_solves s.Sv.s_cache_exact_hits
      s.Sv.s_cache_subset_unsat_hits s.Sv.s_cache_model_reuse_hits
      s.Sv.s_cache_misses (Sv.cache_hit_rate s) s.Sv.s_interval_solves
      s.Sv.s_bitblast_solves s.Sv.s_cache_evictions wall (List.length bugs)
  in
  pr "{\n  \"experiment\": \"solver\",\n  \"drivers\": [\n";
  List.iteri
    (fun i r ->
      pr
        "    {\"driver\": %S,\n     \"baseline\": %s,\n     \"accelerated\": \
         %s,\n     \"speedup\": %.3f,\n     \"bugs_match\": %b}%s\n"
        r.sr_driver
        (stats_json r.sr_base r.sr_base_wall r.sr_base_bugs)
        (stats_json r.sr_accel r.sr_accel_wall r.sr_accel_bugs)
        (if r.sr_accel_wall > 0.0 then r.sr_base_wall /. r.sr_accel_wall
         else 1.0)
        (r.sr_base_bugs = r.sr_accel_bugs)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pr "  ]\n}\n";
  close_out oc

let solver_bench () =
  section
    "Solver acceleration: independence slicing + counterexample query cache \
     (KLEE-style; baseline solves every query from scratch)";
  let module Sv = Ddt_solver.Solver in
  let run_with accel e =
    let cfg = Corpus.config e in
    let cfg =
      { cfg with
        Config.exec_config =
          { cfg.Config.exec_config with Exec.solver_accel = accel } }
    in
    let t0 = Unix.gettimeofday () in
    let r = Ddt_core.Ddt.test_driver cfg in
    (r, Unix.gettimeofday () -. t0)
  in
  let bug_keys (r : Session.result) =
    List.map (fun b -> b.Report.b_key) r.Session.r_bugs
    |> List.sort_uniq compare
  in
  Printf.printf "%-16s %9s %9s %9s %9s %6s %8s %5s\n" "Driver" "queries"
    "grp-slv" "bb-base" "bb-accel" "hit%" "speedup" "same";
  let rows =
    List.map
      (fun e ->
        let rb, tb = run_with false e in
        let ra, ta = run_with true e in
        let sb = rb.Session.r_stats.Exec.st_solver in
        let sa = ra.Session.r_stats.Exec.st_solver in
        let kb = bug_keys rb and ka = bug_keys ra in
        Printf.printf "%-16s %9d %9d %9d %9d %5.1f%% %7.2fx %5s\n"
          e.Corpus.short sa.Sv.s_queries sa.Sv.s_group_solves
          sb.Sv.s_bitblast_solves sa.Sv.s_bitblast_solves
          (100.0 *. Sv.cache_hit_rate sa)
          (if ta > 0.0 then tb /. ta else 1.0)
          (if kb = ka then "yes" else "NO");
        { sr_driver = e.Corpus.short; sr_base = sb; sr_base_wall = tb;
          sr_base_bugs = kb; sr_accel = sa; sr_accel_wall = ta;
          sr_accel_bugs = ka })
      Corpus.all
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let hits = sum (fun r -> Sv.cache_hits r.sr_accel) in
  let lookups =
    hits + sum (fun r -> r.sr_accel.Sv.s_cache_misses)
  in
  Printf.printf
    "\ntotals: bit-blasts %d -> %d | cache hit rate %.1f%% | wall %.2fs -> \
     %.2fs (%.2fx) | bug reports identical on %d/%d drivers\n"
    (sum (fun r -> r.sr_base.Sv.s_bitblast_solves))
    (sum (fun r -> r.sr_accel.Sv.s_bitblast_solves))
    (if lookups = 0 then 0.0
     else 100.0 *. float_of_int hits /. float_of_int lookups)
    (sumf (fun r -> r.sr_base_wall))
    (sumf (fun r -> r.sr_accel_wall))
    (let ta = sumf (fun r -> r.sr_accel_wall) in
     if ta > 0.0 then sumf (fun r -> r.sr_base_wall) /. ta else 1.0)
    (List.length
       (List.filter (fun r -> r.sr_base_bugs = r.sr_accel_bugs) rows))
    (List.length rows);
  if !json_mode then begin
    write_solver_json rows "BENCH_solver.json";
    Printf.printf "wrote BENCH_solver.json\n"
  end

(* --- static pre-analysis guidance ------------------------------------------------ *)

type static_row = {
  xr_driver : string;
  xr_reachable : int;
  xr_linear : int;
  xr_findings : int;
  xr_bugs_match : bool;
  xr_paths_base : int option;
  xr_paths_guided : int option;
  xr_cov_base : int;          (* covered reachable blocks, full budget *)
  xr_cov_guided : int;
  xr_budget_cov_base : int;   (* covered reachable blocks, tight budget *)
  xr_budget_cov_guided : int;
}

let write_static_json rows path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  let opt = function None -> "null" | Some n -> string_of_int n in
  pr "{\n  \"experiment\": \"static\",\n  \"drivers\": [\n";
  List.iteri
    (fun i r ->
      pr
        "    {\"driver\": %S, \"reachable_blocks\": %d, \
         \"linear_sweep_blocks\": %d, \"static_findings\": %d, \
         \"bugs_match\": %b, \"paths_to_first_bug_min_touch\": %s, \
         \"paths_to_first_bug_min_dist\": %s, \
         \"covered_reachable_min_touch\": %d, \
         \"covered_reachable_min_dist\": %d, \
         \"budget_covered_min_touch\": %d, \
         \"budget_covered_min_dist\": %d}%s\n"
        r.xr_driver r.xr_reachable r.xr_linear r.xr_findings r.xr_bugs_match
        (opt r.xr_paths_base) (opt r.xr_paths_guided) r.xr_cov_base
        r.xr_cov_guided r.xr_budget_cov_base r.xr_budget_cov_guided
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pr "  ]\n}\n";
  close_out oc

let static_bench () =
  section
    "Static pre-analysis guidance: ICFG distance-to-uncovered (min-dist) vs \
     the coverage counter alone (min-touch)";
  let drivers =
    if !quick_mode then [ "rtl8029"; "pcnet" ]
    else List.map (fun e -> e.Corpus.short) Corpus.all
  in
  let run short ~guided ~budget =
    let cfg = Corpus.config (Corpus.find short) in
    let cfg =
      match budget with
      | Some b -> { cfg with Config.max_total_steps = b; plateau_steps = b }
      | None ->
          if !quick_mode then
            { cfg with Config.max_total_steps = 60_000; plateau_steps = 50_000 }
          else cfg
    in
    if guided then
      { cfg with
        Config.exec_config =
          { cfg.Config.exec_config with
            Exec.static_guidance = true;
            strategy = Ddt_symexec.Sched.Min_dist } }
    else cfg
  in
  let bug_keys (r : Session.result) =
    List.sort compare (List.map (fun b -> b.Report.b_key) r.Session.r_bugs)
  in
  let budget = if !quick_mode then 15_000 else 40_000 in
  Printf.printf "%-16s %6s %6s %6s %5s %9s %9s %8s %8s\n" "Driver" "reach"
    "linear" "static" "same" "fb-touch" "fb-dist" "cov@B" "covD@B";
  let rows =
    List.map
      (fun short ->
        let rb = Ddt_core.Ddt.test_driver (run short ~guided:false ~budget:None) in
        let rg = Ddt_core.Ddt.test_driver (run short ~guided:true ~budget:None) in
        let tb = Ddt_core.Ddt.test_driver (run short ~guided:false ~budget:(Some budget)) in
        let tg = Ddt_core.Ddt.test_driver (run short ~guided:true ~budget:(Some budget)) in
        let same = bug_keys rb = bug_keys rg in
        let popt = function None -> "-" | Some n -> string_of_int n in
        Printf.printf "%-16s %6d %6d %6d %5s %9s %9s %8d %8d\n" short
          rb.Session.r_reachable_blocks rb.Session.r_total_blocks
          (List.length rb.Session.r_static)
          (if same then "yes" else "NO")
          (popt rb.Session.r_paths_to_first_bug)
          (popt rg.Session.r_paths_to_first_bug)
          tb.Session.r_covered_reachable tg.Session.r_covered_reachable;
        {
          xr_driver = short;
          xr_reachable = rb.Session.r_reachable_blocks;
          xr_linear = rb.Session.r_total_blocks;
          xr_findings = List.length rb.Session.r_static;
          xr_bugs_match = same;
          xr_paths_base = rb.Session.r_paths_to_first_bug;
          xr_paths_guided = rg.Session.r_paths_to_first_bug;
          xr_cov_base = rb.Session.r_covered_reachable;
          xr_cov_guided = rg.Session.r_covered_reachable;
          xr_budget_cov_base = tb.Session.r_covered_reachable;
          xr_budget_cov_guided = tg.Session.r_covered_reachable;
        })
      drivers
  in
  let wins =
    List.filter
      (fun r ->
        match (r.xr_paths_base, r.xr_paths_guided) with
        | Some b, Some g -> g <= b
        | None, None -> true
        | None, Some _ -> true  (* guided found a bug the baseline missed *)
        | Some _, None -> false)
      rows
  in
  Printf.printf
    "\nbug reports identical with guidance on/off on %d/%d drivers | \
     min-dist finds the first bug in <= the baseline's paths on %d/%d\n"
    (List.length (List.filter (fun r -> r.xr_bugs_match) rows))
    (List.length rows) (List.length wins) (List.length rows);
  if !json_mode then begin
    write_static_json rows "BENCH_static.json";
    Printf.printf "wrote BENCH_static.json\n"
  end

(* --- chaos / resilience ----------------------------------------------------------- *)

type chaos_row = {
  cr_driver : string;
  cr_bugs : int;
  cr_wall : float;            (* fault-free *)
  cr_chaos_wall : float;      (* all injections enabled *)
  cr_bugs_match : bool;       (* chaos bug set = fault-free bug set *)
  cr_incidents : int;
  cr_restarts : int;
  cr_retries : int;
  cr_retry_recovered : int;
  cr_soft_retired : int;
  cr_governor_trips : int;
}

let write_chaos_json rows path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "{\n  \"experiment\": \"chaos\",\n";
  pr
    "  \"note\": \"the chaos leg injects worker crashes, forced solver \
     budget exhaustions and simulated memory pressure and must reproduce \
     the fault-free bug set.\",\n";
  pr "  \"drivers\": [\n";
  List.iteri
    (fun i r ->
      pr
        "    {\"driver\": %S, \"bugs\": %d, \"wall_s\": %.4f, \
         \"chaos_wall_s\": %.4f, \"bugs_match\": %b, \"incidents\": %d, \
         \"worker_restarts\": %d,\n     \"solver_retries\": %d, \
         \"retry_recovered\": %d, \"soft_retired\": %d, \
         \"governor_trips\": %d}%s\n"
        r.cr_driver r.cr_bugs r.cr_wall r.cr_chaos_wall r.cr_bugs_match
        r.cr_incidents r.cr_restarts r.cr_retries r.cr_retry_recovered
        r.cr_soft_retired r.cr_governor_trips
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pr "  ]\n}\n";
  close_out oc

let chaos_bench () =
  let module Sv = Ddt_solver.Solver in
  let module Guard = Ddt_symexec.Guard in
  section
    (if !quick_mode then
       "Chaos smoke test (--quick): fault injection on 2 drivers, tight \
        budgets"
     else
       "Chaos harness: worker crashes + solver budget exhaustion + memory \
        pressure; the session must survive, quarantine each fault as an \
        engine incident, and report the fault-free bug set");
  let drivers =
    if !quick_mode then [ "rtl8029"; "pcnet" ]
    else List.map (fun e -> e.Corpus.short) Corpus.all
  in
  let injections =
    { Guard.chaos_worker_crash_period = 25; chaos_solver_exhaust_period = 3;
      chaos_pressure_words = 50_000_000 }
  in
  let pressure_limits =
    { Ddt_core.Governor.soft_states = 0; soft_cow_depth = 0;
      soft_live_words = 1; min_states = 8; max_retire_per_trip = 1 }
  in
  let run short ~chaos =
    let cfg = Corpus.config (Corpus.find short) in
    let cfg =
      if !quick_mode then
        { cfg with Config.max_total_steps = 60_000; plateau_steps = 50_000 }
      else cfg
    in
    let cfg =
      if chaos then { cfg with Config.governor = Some pressure_limits }
      else cfg
    in
    let cfg =
      { cfg with
        Config.exec_config =
          { cfg.Config.exec_config with
            Exec.chaos = (if chaos then Some injections else None) } }
    in
    (* cold query cache for every leg, so walls and injection points are
       comparable *)
    Sv.clear_cache ();
    let t0 = Unix.gettimeofday () in
    let r = Ddt_core.Ddt.test_driver cfg in
    (r, Unix.gettimeofday () -. t0)
  in
  let bug_keys (r : Session.result) =
    List.sort compare (List.map (fun b -> b.Report.b_key) r.Session.r_bugs)
  in
  Printf.printf "%-16s %9s %9s %5s %5s %5s %5s %5s\n" "Driver" "wall(s)"
    "chaos(s)" "same" "incid" "rst" "retry" "shed";
  let rows =
    List.map
      (fun short ->
        let r, t = run short ~chaos:false in
        let rch, tch = run short ~chaos:true in
        let same = bug_keys r = bug_keys rch in
        let s = rch.Session.r_stats in
        let sv = s.Exec.st_solver in
        Printf.printf "%-16s %9.2f %9.2f %5s %5d %5d %5d %5d\n" short t tch
          (if same then "yes" else "NO")
          s.Exec.st_incidents s.Exec.st_worker_restarts sv.Sv.s_retries
          s.Exec.st_soft_retired;
        {
          cr_driver = short;
          cr_bugs = List.length rch.Session.r_bugs;
          cr_wall = t;
          cr_chaos_wall = tch;
          cr_bugs_match = same;
          cr_incidents = s.Exec.st_incidents;
          cr_restarts = s.Exec.st_worker_restarts;
          cr_retries = sv.Sv.s_retries;
          cr_retry_recovered = sv.Sv.s_retry_recovered;
          cr_soft_retired = s.Exec.st_soft_retired;
          cr_governor_trips = rch.Session.r_governor_trips;
        })
      drivers
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Printf.printf
    "\nbug sets identical (default/chaos) on %d/%d drivers | %d incidents \
     quarantined, %d restarts, %d escalated retries (%d recovered), %d \
     states shed\n"
    (List.length (List.filter (fun r -> r.cr_bugs_match) rows))
    (List.length rows)
    (sum (fun r -> r.cr_incidents))
    (sum (fun r -> r.cr_restarts))
    (sum (fun r -> r.cr_retries))
    (sum (fun r -> r.cr_retry_recovered))
    (sum (fun r -> r.cr_soft_retired));
  if !json_mode then begin
    write_chaos_json rows "BENCH_chaos.json";
    Printf.printf "wrote BENCH_chaos.json\n"
  end

(* --- state merging at post-dominators ------------------------------------------- *)

type merge_row = {
  mr_driver : string;
  mr_off_wall : float;
  mr_off_bugs : string list;
  mr_off_states : int;
  mr_off_cov : int;
  mr_on_wall : float;
  mr_on_bugs : string list;
  mr_on_states : int;
  mr_on_cov : int;
  mr_chaos_match : bool; (* chaos legs report identical bugs merge on/off *)
  mr_stats : Exec.stats; (* from the merge-on leg *)
}

let write_merge_json rows path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "{\n  \"experiment\": \"merge\",\n";
  pr
    "  \"note\": \"dynamic state merging at post-dominators \
     (veritesting): sibling states fused into ite-lifted survivors; \
     state counts and wall time merging off vs on, with bug-report \
     parity plain and under chaos\",\n";
  pr "  \"drivers\": [\n";
  List.iteri
    (fun i r ->
      pr
        "    {\"driver\": %S, \"wall_off_s\": %.4f, \"wall_on_s\": %.4f, \
         \"states_off\": %d, \"states_on\": %d, \"state_ratio\": %.1f, \
         \"covered_off\": %d, \"covered_on\": %d, \"bugs_off\": %d, \
         \"bugs_on\": %d, \"bugs_match\": %b, \"chaos_bugs_match\": %b, \
         \"merged_states\": %d, \"merge_ites\": %d, \
         \"merge_forks_avoided\": %d, \"merge_refusals\": %d}%s\n"
        r.mr_driver r.mr_off_wall r.mr_on_wall r.mr_off_states r.mr_on_states
        (float_of_int r.mr_off_states /. float_of_int (max 1 r.mr_on_states))
        r.mr_off_cov r.mr_on_cov
        (List.length r.mr_off_bugs)
        (List.length r.mr_on_bugs)
        (r.mr_off_bugs = r.mr_on_bugs)
        r.mr_chaos_match r.mr_stats.Exec.st_merged_states
        r.mr_stats.Exec.st_merge_ites r.mr_stats.Exec.st_merge_forks_avoided
        r.mr_stats.Exec.st_merge_refusals
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pr "  ]\n}\n";
  close_out oc

let merge_bench () =
  section
    (if !quick_mode then
       "State merging smoke test (--quick): parity + state counts on 2 \
        drivers"
     else
       "State merging at post-dominators: frontier sizes and bug-report \
        parity with merging off vs on (plain and under chaos)");
  let drivers =
    if !quick_mode then [ "rtl8029"; "deeploop" ]
    else List.map (fun e -> e.Corpus.short) Corpus.all
  in
  let bug_keys (r : Session.result) =
    List.map (fun b -> b.Report.b_key) r.Session.r_bugs
    |> List.sort_uniq compare
  in
  let run_with ?chaos merging short =
    let cfg = Corpus.config (Corpus.find short) in
    let cfg =
      if !quick_mode then
        { cfg with Config.max_total_steps = 60_000; plateau_steps = 50_000 }
      else
        { cfg with Config.max_total_steps = 150_000; plateau_steps = 100_000 }
    in
    let cfg =
      { cfg with
        Config.exec_config =
          { cfg.Config.exec_config with
            Exec.jobs = 1; state_merging = merging; chaos } }
    in
    Ddt_solver.Solver.clear_cache ();
    let t0 = Unix.gettimeofday () in
    let r = Session.run cfg in
    (r, Unix.gettimeofday () -. t0)
  in
  Printf.printf "\n%-16s %9s %9s %8s %8s %6s %6s %7s %5s %5s\n" "Driver"
    "wall-off" "wall-on" "st-off" "st-on" "ratio" "fused" "avoided" "same"
    "chaos";
  let chaos_spec =
    { Ddt_symexec.Guard.chaos_worker_crash_period = 25;
      chaos_solver_exhaust_period = 3; chaos_pressure_words = 50_000_000 }
  in
  let rows =
    List.map
      (fun short ->
        let roff, toff = run_with false short in
        let ron, ton = run_with true short in
        let coff, _ = run_with ~chaos:chaos_spec false short in
        let con, _ = run_with ~chaos:chaos_spec true short in
        let st = ron.Session.r_stats in
        let s_off = roff.Session.r_stats.Exec.st_states_created
        and s_on = ron.Session.r_stats.Exec.st_states_created in
        Printf.printf
          "%-16s %8.2fs %8.2fs %8d %8d %5.1fx %6d %7d %5s %5s\n" short toff
          ton s_off s_on
          (float_of_int s_off /. float_of_int (max 1 s_on))
          st.Exec.st_merged_states st.Exec.st_merge_forks_avoided
          (if bug_keys roff = bug_keys ron then "yes" else "NO")
          (if bug_keys coff = bug_keys con then "yes" else "NO");
        { mr_driver = short; mr_off_wall = toff; mr_off_bugs = bug_keys roff;
          mr_off_states = s_off;
          mr_off_cov = roff.Session.r_covered_reachable; mr_on_wall = ton;
          mr_on_bugs = bug_keys ron; mr_on_states = s_on;
          mr_on_cov = ron.Session.r_covered_reachable;
          mr_chaos_match = bug_keys coff = bug_keys con; mr_stats = st })
      drivers
  in
  let same =
    List.length (List.filter (fun r -> r.mr_off_bugs = r.mr_on_bugs) rows)
  in
  let chaos_same =
    List.length (List.filter (fun r -> r.mr_chaos_match) rows)
  in
  Printf.printf
    "\ntotals: bug reports identical on %d/%d drivers (%d/%d under chaos)\n"
    same (List.length rows) chaos_same (List.length rows);
  (* The headline claim: the deep-loop driver's exponential frontier
     collapses by at least an order of magnitude at equal coverage. *)
  (match List.find_opt (fun r -> r.mr_driver = "deeploop") rows with
   | Some r ->
       Printf.printf
         "deeploop: %d states unmerged vs %d merged (%.1fx), coverage %d vs \
          %d reachable blocks — %s\n"
         r.mr_off_states r.mr_on_states
         (float_of_int r.mr_off_states /. float_of_int (max 1 r.mr_on_states))
         r.mr_off_cov r.mr_on_cov
         (if r.mr_on_states * 10 <= r.mr_off_states
             && r.mr_on_cov = r.mr_off_cov
          then "10x collapse at equal coverage HOLDS"
          else "10x collapse DOES NOT HOLD")
   | None -> ());
  if !json_mode then begin
    write_merge_json rows "BENCH_merge.json";
    Printf.printf "wrote BENCH_merge.json\n"
  end

(* --- micro-benchmarks ----------------------------------------------------------- *)

let bechamel_run name fn =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage fn) in
  let raw =
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun test_name est ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> Printf.printf "  %-40s %12.1f ns/run\n" test_name ns
      | _ -> Printf.printf "  %-40s (no estimate)\n" test_name)
    results

let bench_device () =
  Ddt_kernel.Pci.assign_resources
    { Ddt_kernel.Pci.vendor_id = 1; device_id = 2; revision = 0;
      bar_sizes = [ 0x1000 ]; irq_line = 9 }
    ~mmio_base:Ddt_dvm.Layout.mmio_base

let micro () =
  section "Micro-benchmarks (Bechamel): engine building blocks";
  let img =
    Ddt_minicc.Codegen.compile ~name:"bench" {|
      int driver_entry(void) {
        int acc = 0;
        int i;
        for (i = 0; i < 100; i = i + 1) { acc = acc + i * 3; }
        return acc;
      }
    |}
  in
  let mem = Ddt_dvm.Mem.create () in
  let loaded = Ddt_dvm.Image.load img mem ~base:Ddt_dvm.Layout.image_base in
  let entry = loaded.Ddt_dvm.Image.base + img.Ddt_dvm.Image.entry in
  bechamel_run "concrete interp: 600-instr function" (fun () ->
      let env = Ddt_dvm.Interp.create ~image:loaded mem in
      Ddt_dvm.Cpu.set env.Ddt_dvm.Interp.cpu Ddt_dvm.Isa.sp
        Ddt_dvm.Layout.stack_top;
      ignore (Ddt_dvm.Interp.call_function env ~addr:entry ~args:[]));
  let open Ddt_solver in
  bechamel_run "solver: registry-param comparison" (fun () ->
      let v = Expr.fresh_var Expr.W32 in
      ignore
        (Solver.check
           [ Expr.cmp Expr.Les (Expr.word 0) (Expr.var v);
             Expr.cmp Expr.Ltu (Expr.var v) (Expr.word 8) ]));
  bechamel_run "solver: bit-blasted multiplication" (fun () ->
      let v = Expr.fresh_var Expr.W32 in
      ignore
        (Solver.check
           [ Expr.cmp Expr.Eq
               (Expr.binop Expr.Mul (Expr.var v) (Expr.word 3))
               (Expr.word 21);
             Expr.cmp Expr.Ltu (Expr.var v) (Expr.word 256) ]));
  let base = Ddt_dvm.Mem.create () in
  let sm = Ddt_symexec.Symmem.create ~base ~symdev:None in
  for i = 0 to 255 do
    Ddt_symexec.Symmem.write_u32 sm (0x1000 + (4 * i)) (Expr.word i)
  done;
  bechamel_run "symmem: fork + 16 writes + 16 reads" (fun () ->
      let child = Ddt_symexec.Symmem.fork sm in
      for i = 0 to 15 do
        Ddt_symexec.Symmem.write_u32 child (0x2000 + (4 * i)) (Expr.word i)
      done;
      for i = 0 to 15 do
        ignore (Ddt_symexec.Symmem.read_u32 child (0x1000 + (4 * i)))
      done);
  (* One word each through the two access paths: 0x1010 lies inside a
     64-byte page, 0x103E straddles two. *)
  bechamel_run "symmem: aligned in-page u32 write+read" (fun () ->
      Ddt_symexec.Symmem.write_u32 sm 0x1010 (Expr.word 0x12345678);
      ignore (Ddt_symexec.Symmem.read_u32 sm 0x1010));
  bechamel_run "symmem: page-straddling u32 write+read" (fun () ->
      Ddt_symexec.Symmem.write_u32 sm 0x103E (Expr.word 0x12345678);
      ignore (Ddt_symexec.Symmem.read_u32 sm 0x103E));
  (* A min-touch pick: 256 queued states spread over 8 blocks, one
     block's count bumped before each pop (the popped state is requeued,
     so the queue stays at 256). *)
  let module Sched = Ddt_symexec.Sched in
  let ks = Ddt_kernel.Kstate.create ~device:(bench_device ()) () in
  let counts = Array.make 8 0 in
  let q =
    Sched.create Sched.Min_touch
      ~key:(fun st -> st.Ddt_symexec.Symstate.id land 7)
      ~priority:(fun b -> counts.(b))
  in
  for id = 0 to 255 do
    Sched.push q (Ddt_symexec.Symstate.create ~id ~mem:sm ~ks)
  done;
  let bump = ref 0 in
  bechamel_run "sched: pop of 256 states over 8 blocks" (fun () ->
      incr bump;
      counts.(!bump land 7) <- counts.(!bump land 7) + 1;
      match Sched.pop q with Some st -> Sched.requeue q st | None -> ());
  (* A pin-free branch-feasibility question whose group is cached, the
     common case on the corpus: a fresh branch condition over one of six
     device-read bytes, each constrained twice on the path. *)
  let bytes = Array.init 6 (fun _ -> Expr.fresh_var Expr.W8) in
  let byte i = Expr.zext (Expr.var bytes.(i)) in
  let path =
    List.concat
      (List.init 6 (fun i ->
           [ Expr.cmp Expr.Ltu (byte i) (Expr.word 200);
             Expr.cmp Expr.Ne (byte i) (Expr.word i) ]))
  in
  let branch () = Expr.cmp Expr.Ltu (byte 2) (Expr.word 100) in
  ignore (Solver.feasible path ~pinned:[] (branch ()));
  bechamel_run "solver: cached pin-free feasibility" (fun () ->
      ignore (Solver.feasible path ~pinned:[] (branch ())))

(* --- static race / lockset experiment -------------------------------------------- *)

type staticrace_row = {
  sr_driver : string;
  sr_buggy_warnings : int;       (* interprocedural (lock/irql/race) rules *)
  sr_fixed_warnings : int;       (* same rules on the fixed variant: FPs *)
  sr_baseline_buggy : int;       (* intraprocedural absint baseline *)
  sr_baseline_fixed : int;
  sr_rules : string list;        (* rules that fired on the buggy variant *)
}

(* The interprocedural rule families added by [Ddt_staticx.Lockirql] and
   [Ddt_staticx.Racepair]; the syntactic [Sfind] rules are excluded so
   the comparison is new-analysis vs the absint baseline. *)
let interproc_rules = [ "lock-"; "irql-"; "race-" ]

let is_interproc rule =
  List.exists (fun p -> String.starts_with ~prefix:p rule) interproc_rules

let staticx_warnings entry ~fixed =
  let image =
    if fixed then entry.Corpus.fixed_image () else entry.Corpus.image ()
  in
  let icfg = Ddt_staticx.Icfg.build image in
  let contracts, model =
    match entry.Corpus.driver_class with
    | Config.Network ->
        (Ddt_annot.Ndis_annotations.contracts, Ddt_annot.Ndis_annotations.model)
    | Config.Audio ->
        ( Ddt_annot.Portcls_annotations.contracts,
          Ddt_annot.Portcls_annotations.model )
  in
  List.filter
    (fun f -> is_interproc f.Ddt_staticx.Sfind.f_rule)
    (Ddt_staticx.Sfind.analyze ~contracts ~model icfg)

let write_staticrace_json rows ~fixed_fps ~confirm_driver ~confirm_rule
    ~confirmed_by ~unconfirmed path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "{\n  \"experiment\": \"staticrace\",\n";
  pr
    "  \"note\": \"interprocedural lockset/IRQL + race warnings (buggy vs \
     fixed variants) against the intraprocedural absint baseline; \
     fixed-variant warnings are false positives and must be zero\",\n";
  pr "  \"fixed_variant_false_positives\": %d,\n" fixed_fps;
  pr "  \"confirmation\": {\"driver\": %S, \"rule\": %S, \"confirmed_by\": %S, \
      \"unconfirmed_warnings\": %d},\n"
    confirm_driver confirm_rule confirmed_by unconfirmed;
  pr "  \"drivers\": [\n";
  List.iteri
    (fun i r ->
      pr
        "    {\"driver\": %S, \"staticx_buggy\": %d, \"staticx_fixed\": %d, \
         \"baseline_buggy\": %d, \"baseline_fixed\": %d, \"rules\": [%s]}%s\n"
        r.sr_driver r.sr_buggy_warnings r.sr_fixed_warnings r.sr_baseline_buggy
        r.sr_baseline_fixed
        (String.concat ", " (List.map (Printf.sprintf "%S") r.sr_rules))
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pr "  ]\n}\n";
  close_out oc

let staticrace_bench () =
  section
    (if !quick_mode then
       "Static race/lockset smoke test (--quick): seeded corpus + \
        fixed-variant FP check + one directed confirmation"
     else
       "Static race/lockset analysis: interprocedural warnings (buggy vs \
        fixed) vs the absint baseline, with directed symbolic confirmation");
  let drivers =
    if !quick_mode then [ "rtl8029"; "ac97" ]
    else List.map (fun e -> e.Corpus.short) Corpus.all
  in
  Printf.printf "%-12s %12s %12s %14s %14s\n" "Driver" "staticx/bug"
    "staticx/fix" "baseline/bug" "baseline/fix";
  let rows =
    List.map
      (fun short ->
        let e = Corpus.find short in
        let wb = staticx_warnings e ~fixed:false in
        let wf = staticx_warnings e ~fixed:true in
        let base ~fixed =
          let image = if fixed then e.Corpus.fixed_image () else e.Corpus.image () in
          List.length
            (Ddt_baseline.Static.analyze ~name:short image)
              .Ddt_baseline.Static.st_findings
        in
        let bb = base ~fixed:false and bf = base ~fixed:true in
        Printf.printf "%-12s %12d %12d %14d %14d\n" short (List.length wb)
          (List.length wf) bb bf;
        {
          sr_driver = short;
          sr_buggy_warnings = List.length wb;
          sr_fixed_warnings = List.length wf;
          sr_baseline_buggy = bb;
          sr_baseline_fixed = bf;
          sr_rules =
            List.sort_uniq compare
              (List.map (fun f -> f.Ddt_staticx.Sfind.f_rule) wb);
        })
      drivers
  in
  (* The sdv sample: the lockset rules must flag all six statically-
     visible seeded lock/IRQL defects, none on the fixed image. *)
  let sdv_rules img =
    let icfg = Ddt_staticx.Icfg.build img in
    List.filter is_interproc
      (List.map
         (fun f -> f.Ddt_staticx.Sfind.f_rule)
         (Ddt_staticx.Sfind.analyze
            ~contracts:Ddt_annot.Ndis_annotations.contracts
            ~model:Ddt_annot.Ndis_annotations.model icfg))
  in
  let sdv_buggy = sdv_rules (Ddt_drivers.Sdv_sample.image ()) in
  let sdv_fixed = sdv_rules (Ddt_drivers.Sdv_sample.fixed_image ()) in
  Printf.printf "%-12s %12d %12d %14s %14s\n" "sdv_sample"
    (List.length sdv_buggy) (List.length sdv_fixed) "-" "-";
  let fixed_fps =
    List.fold_left (fun a r -> a + r.sr_fixed_warnings) 0 rows
    + List.length sdv_fixed
  in
  (* Directed confirmation: a guided session on rtl8029's buggy variant.
     Its static race warning (the timer armed from interrupt context
     before initialization) becomes a permanent distance goal; the
     dynamic race the session finds in the same function must promote the
     warning to Confirmed. *)
  let e = Corpus.find "rtl8029" in
  let cfg = Corpus.config e in
  let cfg =
    { cfg with
      Config.exec_config =
        { cfg.Config.exec_config with
          Exec.static_guidance = true;
          strategy = Ddt_symexec.Sched.Min_dist } }
  in
  let r = Ddt_core.Ddt.test_driver cfg in
  let confirmed, unconfirmed =
    List.partition
      (fun sf ->
        match sf.Report.sf_confirm with Report.Confirmed _ -> true | _ -> false)
      (List.filter
         (fun sf -> is_interproc sf.Report.sf_rule)
         r.Session.r_static)
  in
  let confirm_rule, confirmed_by =
    match confirmed with
    | sf :: _ ->
        ( sf.Report.sf_rule,
          match sf.Report.sf_confirm with
          | Report.Confirmed k -> k
          | _ -> "" )
    | [] -> ("", "")
  in
  Printf.printf
    "\nsdv_sample lock/IRQL warnings: %d buggy / %d fixed (expect 6 / 0)\n"
    (List.length sdv_buggy) (List.length sdv_fixed);
  Printf.printf "fixed-variant false positives: %d (must be 0)\n" fixed_fps;
  Printf.printf
    "directed confirmation on rtl8029: %d confirmed, %d unconfirmed%s\n"
    (List.length confirmed) (List.length unconfirmed)
    (match confirmed with
     | sf :: _ ->
         Printf.sprintf " (%s -> %s)" sf.Report.sf_rule
           (match sf.Report.sf_confirm with
            | Report.Confirmed k -> k
            | _ -> "?")
     | [] -> "");
  if !json_mode then begin
    write_staticrace_json rows ~fixed_fps ~confirm_driver:"rtl8029"
      ~confirm_rule ~confirmed_by ~unconfirmed:(List.length unconfirmed)
      "BENCH_staticrace.json";
    Printf.printf "wrote BENCH_staticrace.json\n"
  end;
  if fixed_fps > 0 then begin
    Printf.printf "FAIL: static warnings on fixed variants\n";
    exit 1
  end;
  if confirmed = [] then begin
    Printf.printf "FAIL: no race warning was dynamically confirmed\n";
    exit 1
  end

(* --- durable exploration: checkpoint overhead, resume, warm start --------------- *)

type resume_row = {
  du_driver : string;
  du_scratch_wall : float;       (* uninterrupted, no checkpointing *)
  du_ckpt_wall : float;          (* same run with periodic checkpoints *)
  du_resume_wall : float;        (* resumed from the leftover mid-run ckpt *)
  du_resume_identical : bool;    (* resumed JSON = oracle JSON, byte for byte *)
  du_cold_blasts : int;          (* bit-blasts with an empty store *)
  du_warm_blasts : int;          (* bit-blasts with the store warmed *)
  du_warm_hits : int;            (* persistent-store cache hits *)
  du_warm_identical : bool;      (* warm JSON = cold JSON *)
}

let write_resume_json rows path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "{\n  \"experiment\": \"resume\",\n";
  pr
    "  \"note\": \"durable exploration: periodic checkpoint overhead at \
     ~4 checkpoints per run, kill-resume wall time vs from-scratch (the \
     resumed report must be byte-identical), and warm-start bit-blast \
     reduction from the persistent solver store\",\n";
  pr "  \"drivers\": [\n";
  List.iteri
    (fun i r ->
      pr
        "    {\"driver\": %S, \"wall_scratch_s\": %.4f, \"wall_ckpt_s\": \
         %.4f, \"ckpt_overhead_pct\": %.1f, \"wall_resume_s\": %.4f, \
         \"resume_identical\": %b, \"bitblasts_cold\": %d, \
         \"bitblasts_warm\": %d, \"warm_store_hits\": %d, \
         \"warm_identical\": %b}%s\n"
        r.du_driver r.du_scratch_wall r.du_ckpt_wall
        (100.0
         *. ((r.du_ckpt_wall -. r.du_scratch_wall)
             /. Float.max 1e-6 r.du_scratch_wall))
        r.du_resume_wall r.du_resume_identical r.du_cold_blasts
        r.du_warm_blasts r.du_warm_hits r.du_warm_identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pr "  ]\n}\n";
  close_out oc

let resume_bench () =
  section
    (if !quick_mode then
       "Durable exploration smoke test (--quick): checkpoint/resume + \
        warm start on 2 drivers"
     else
       "Durable exploration: checkpoint overhead, kill-resume parity and \
        persistent-store warm start across the corpus");
  let drivers =
    if !quick_mode then [ "rtl8029"; "pro100" ]
    else List.map (fun e -> e.Corpus.short) Corpus.all
  in
  let workdir =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ddt_bench_resume_%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let base_cfg short =
    let cfg = Corpus.config (Corpus.find short) in
    { cfg with
      Config.exec_config = { cfg.Config.exec_config with Exec.jobs = 1 } }
  in
  let timed f =
    Ddt_solver.Solver.clear_cache ();
    Ddt_solver.Expr.reset_var_counter ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let json r = Ddt_core.Report_json.to_string (Ddt_core.Report_json.of_result r) in
  let blasts (r : Session.result) =
    r.Session.r_stats.Exec.st_solver.Ddt_solver.Solver.s_bitblast_solves
  in
  let phits (r : Session.result) =
    r.Session.r_stats.Exec.st_solver.Ddt_solver.Solver.s_cache_persist_hits
  in
  Printf.printf "\n%-12s %9s %9s %7s %9s %6s %7s %7s %6s %5s\n" "Driver"
    "scratch" "w/ckpt" "ovh%" "resume" "ident" "blast-c" "blast-w" "hits"
    "warm";
  let rows =
    List.map
      (fun short ->
        let ckpt = Filename.concat workdir (short ^ ".ckpt") in
        let store = Filename.concat workdir (short ^ ".store") in
        (try Sys.remove ckpt with Sys_error _ -> ());
        let oracle, t_scratch = timed (fun () -> Session.run (base_cfg short)) in
        (* Interval scaled to the driver's actual step count so every
           driver takes a handful of checkpoints (deeploop runs only a
           few thousand steps; a fixed interval would never fire). *)
        let every =
          max 500 (oracle.Session.r_stats.Exec.st_total_steps / 4)
        in
        let ck_cfg =
          { (base_cfg short) with
            Config.checkpoint_every = every; checkpoint_path = Some ckpt }
        in
        let _, t_ck = timed (fun () -> Session.run ck_cfg) in
        let resumed, t_resume =
          timed (fun () ->
              match Session.resume ck_cfg ~path:ckpt with
              | Ok r -> r
              | Error e -> failwith ("resume: " ^ e))
        in
        let resume_identical = json resumed = json oracle in
        let st_cfg = { (base_cfg short) with Config.store_dir = Some store } in
        let cold, _ = timed (fun () -> Session.run st_cfg) in
        let warm, _ = timed (fun () -> Session.run st_cfg) in
        let warm_identical = json warm = json cold in
        let row =
          { du_driver = short; du_scratch_wall = t_scratch;
            du_ckpt_wall = t_ck; du_resume_wall = t_resume;
            du_resume_identical = resume_identical;
            du_cold_blasts = blasts cold; du_warm_blasts = blasts warm;
            du_warm_hits = phits warm; du_warm_identical = warm_identical }
        in
        Printf.printf
          "%-12s %8.2fs %8.2fs %6.1f%% %8.2fs %6s %7d %7d %6d %5s\n" short
          t_scratch t_ck
          (100.0 *. ((t_ck -. t_scratch) /. Float.max 1e-6 t_scratch))
          t_resume
          (if resume_identical then "yes" else "NO")
          (blasts cold) (blasts warm) (phits warm)
          (if warm_identical then "yes" else "NO");
        row)
      drivers
  in
  let bad_resume = List.filter (fun r -> not r.du_resume_identical) rows in
  let bad_warm = List.filter (fun r -> not r.du_warm_identical) rows in
  let no_hits = List.filter (fun r -> r.du_warm_hits = 0) rows in
  Printf.printf
    "\ntotals: resume byte-identical on %d/%d drivers, warm start \
     identical on %d/%d, store hits on %d/%d\n"
    (List.length rows - List.length bad_resume)
    (List.length rows)
    (List.length rows - List.length bad_warm)
    (List.length rows)
    (List.length rows - List.length no_hits)
    (List.length rows);
  if !json_mode then begin
    write_resume_json rows "BENCH_resume.json";
    Printf.printf "wrote BENCH_resume.json\n"
  end;
  if bad_resume <> [] || bad_warm <> [] then begin
    Printf.printf "FAIL: durability parity broken\n";
    exit 1
  end

(* --- main ------------------------------------------------------------------------ *)

let all_experiments =
  [ ("table1", table1); ("table2", table2); ("fig2", figures);
    ("stress", stress); ("sdv", sdv); ("synthetic", synthetic);
    ("ablation", ablation); ("sched", sched); ("parallel", parallel);
    ("memory", memory); ("solver", solver_bench); ("static", static_bench);
    ("chaos", chaos_bench);
    ("merge", merge_bench); ("staticrace", staticrace_bench);
    ("resume", resume_bench); ("micro", micro) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (fun a -> String.length a > 1 && a.[0] = '-') args in
  json_mode := List.mem "--json" flags;
  quick_mode := List.mem "--quick" flags;
  let requested =
    match names with
    | _ :: _ -> names
    | [] -> List.map fst all_experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      let name = if name = "fig3" then "fig2" else name in
      match List.assoc_opt name all_experiments with
      | Some f -> f ()
      | None ->
          Printf.printf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst all_experiments)))
    requested;
  Printf.printf "\nbench harness finished in %.1fs\n"
    (Unix.gettimeofday () -. t0)
