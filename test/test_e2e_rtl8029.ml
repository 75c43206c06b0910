(* End-to-end: DDT on the RTL8029-alike driver must find all five Table 2
   bugs and report nothing on the fixed variant. *)

open Ddt_core
module Report = Ddt_checkers.Report

let run_ddt ?(annotations = true) image =
  let cfg =
    Config.make ~driver_name:"RTL8029" ~image ~driver_class:Config.Network
      ~descriptor:Ddt_drivers.Rtl8029.descriptor
      ~registry:Ddt_drivers.Rtl8029.registry ~use_annotations:annotations ()
  in
  Ddt.test_driver cfg

let kinds bugs = List.map (fun b -> b.Report.b_kind) bugs

let test_finds_all_five () =
  let r = run_ddt (Ddt_drivers.Rtl8029.image ()) in
  let ks = kinds r.Session.r_bugs in
  let count k = List.length (List.filter (( = ) k) ks) in
  Format.printf "%a@." Ddt.pp_report r;
  Alcotest.(check bool) "resource leak found" true (count Report.Resource_leak >= 1);
  Alcotest.(check bool) "memory corruption found" true
    (count Report.Memory_error >= 1);
  Alcotest.(check bool) "race found" true (count Report.Race_condition >= 1);
  Alcotest.(check bool) "segfaults found" true (count Report.Segfault >= 2)

let test_fixed_is_clean () =
  let r = run_ddt (Ddt_drivers.Rtl8029.fixed_image ()) in
  List.iter (fun b -> Format.printf "unexpected: %a@." Report.pp_bug b)
    r.Session.r_bugs;
  Alcotest.(check int) "no bugs in fixed driver" 0
    (List.length r.Session.r_bugs)

let test_coverage_reasonable () =
  let r = run_ddt (Ddt_drivers.Rtl8029.image ()) in
  Alcotest.(check bool) "covers more than half the blocks" true
    (Session.reachable_coverage_percent r > 50.0)

let () =
  Alcotest.run "ddt_e2e_rtl8029"
    [ ("rtl8029",
       [ Alcotest.test_case "finds all five bugs" `Quick test_finds_all_five;
         Alcotest.test_case "fixed variant clean" `Quick test_fixed_is_clean;
         Alcotest.test_case "coverage" `Quick test_coverage_reasonable ]) ]
