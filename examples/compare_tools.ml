(* DDT vs the other two tool families (§5.1 of the paper).

   Runs the three approaches on the same binaries:
   - DDT (selective symbolic execution + checkers),
   - the Driver-Verifier-style concrete stress baseline,
   - the SDV-style static analyzer,
   over the SDV sample driver (8 seeded API-rule bugs) and the five
   synthetic one-bug drivers, then prints the §5.1 comparison.

     dune exec examples/compare_tools.exe *)

module Report = Ddt_checkers.Report
module Sdv = Ddt_drivers.Sdv_sample

let ddt_cfg image =
  Ddt_core.Config.make ~driver_name:"sdv_sample" ~image
    ~driver_class:Ddt_core.Config.Network ~descriptor:Sdv.descriptor
    ~registry:Sdv.registry ()

let () =
  let image = Sdv.image () in

  Format.printf "=== SDV sample driver (8 seeded bugs) ===@.@.";

  let t0 = Unix.gettimeofday () in
  let ddt = Ddt_core.Ddt.test_driver (ddt_cfg image) in
  let ddt_time = Unix.gettimeofday () -. t0 in
  Format.printf "DDT: %d findings in %.2fs@."
    (List.length ddt.Ddt_core.Session.r_bugs) ddt_time;
  List.iter
    (fun b -> Format.printf "  %a@." Report.pp_bug b)
    ddt.Ddt_core.Session.r_bugs;

  let static = Ddt_baseline.Static.analyze ~name:"sdv_sample" image in
  Format.printf "@.%a" Ddt_baseline.Static.pp static;

  let stress = Ddt_baseline.Stress.run ~runs:5 (ddt_cfg image) in
  Format.printf "@.stress: %d findings in %d runs (%.2fs)@.@."
    (List.length stress.Ddt_baseline.Stress.s_bugs)
    stress.Ddt_baseline.Stress.s_runs stress.Ddt_baseline.Stress.s_wall_time;

  Format.printf "=== synthetic one-bug drivers ===@.@.";
  Format.printf "%-20s %-28s %s@." "bug" "DDT" "static baseline";
  List.iter
    (fun (name, img) ->
      let d = Ddt_core.Ddt.test_driver (ddt_cfg img) in
      let s = Ddt_baseline.Static.analyze ~name img in
      Format.printf "%-20s %-28s %s@." name
        (Printf.sprintf "%d finding(s)"
           (List.length d.Ddt_core.Session.r_bugs))
        (String.concat ", "
           (match s.Ddt_baseline.Static.st_findings with
            | [] -> [ "missed" ]
            | fs ->
                List.map (fun f -> f.Ddt_baseline.Absint.fi_rule) fs)))
    (Sdv.synthetic_images ());
  Format.printf
    "@.(the paper's shape: the static tool misses the interprocedural lock \
     bugs,@. finds the locally-evident two, and reports one false positive \
     on correct@. conditional locking; DDT finds all five with none)@."
