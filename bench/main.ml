(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5).

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table2    # one experiment

   Experiments: table1 table2 fig2 (= fig3) stress sdv synthetic
   ablation memory. An unknown name is a usage error (exit 2) and
   runs nothing. Absolute numbers differ from the paper (the
   substrate is a simulator, not a 2 GHz Xeon running Windows XP); the
   shapes are what each experiment checks. *)

module Corpus = Ddt_drivers.Corpus
module Report = Ddt_checkers.Report
module Session = Ddt_core.Session
module Config = Ddt_core.Config
module Exec = Ddt_symexec.Exec

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
      Printf.printf "\n%s (%d reachable basic blocks):\n  %-10s %-12s %s\n"
        e.Corpus.name r.Session.r_reachable_blocks "time(s)" "instructions"
        "coverage";
      let total = float_of_int r.Session.r_reachable_blocks in
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
        (Session.reachable_coverage_percent r))
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
  let ddt_found = ref 0 and ddt_fp = ref 0 in
  let st_found = ref 0 and st_fp = ref 0 in
  List.iter
    (fun (name, img) ->
      let d = Ddt_core.Ddt.test_driver (sdv_cfg img) in
      let s = Ddt_baseline.Static.analyze ~name img in
      let ddt_hit = d.Session.r_bugs <> [] in
      (* A DDT report that matches no seeded-defect marker is a false
         positive. *)
      ddt_fp :=
        !ddt_fp
        + List.length
            (List.filter
               (fun b ->
                 not (List.exists (fun (_, seeded) -> seeded b)
                        sample_defect_markers))
               d.Session.r_bugs);
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
    "\ntotals: DDT %d/5 + %d FP | static %d/5 + %d FP (paper: 5+0 vs 2+1)\n"
    !ddt_found !ddt_fp !st_found !st_fp

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
  Printf.printf "%-22s %8s %10s %10s %12s\n" "Driver" "states"
    "cow depth" "live words" "major words";
  List.iter
    (fun e ->
      let before = (Gc.stat ()).Gc.live_words in
      let r = run_ddt e in
      let s = r.Session.r_stats in
      let after = (Gc.stat ()).Gc.live_words in
      Printf.printf "%-22s %8d %10d %10d %12d\n" e.Corpus.name
        s.Exec.st_states_created s.Exec.st_max_cow_depth s.Exec.st_live_words
        (max 0 (after - before)))
    Corpus.all

(* --- main ------------------------------------------------------------------------ *)

let all_experiments =
  [ ("table1", table1); ("table2", table2); ("fig2", figures);
    ("stress", stress); ("sdv", sdv); ("synthetic", synthetic);
    ("ablation", ablation); ("memory", memory) ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst all_experiments
    | names -> List.map (fun n -> if n = "fig3" then "fig2" else n) names
  in
  (match
     List.filter (fun n -> not (List.mem_assoc n all_experiments)) requested
   with
   | [] -> ()
   | unknown ->
       Printf.eprintf "unknown experiment(s) %s; known: %s (fig3 = fig2)\n"
         (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
         (String.concat ", " (List.map fst all_experiments));
       exit 2);
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name all_experiments) ()) requested;
  Printf.printf "\nbench harness finished in %.1fs\n"
    (Unix.gettimeofday () -. t0)
