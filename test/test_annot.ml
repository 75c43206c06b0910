(* Tests for ddt_annot: the annotation DSL and both shipped sets, driven
   through full sessions on tiny purpose-built drivers. *)

open Ddt_core
module Annot = Ddt_annot.Annot
module Report = Ddt_checkers.Report
module Expr = Ddt_solver.Expr
module Mach = Ddt_kernel.Mach

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run ?annotations ?(use_annotations = true) src =
  let image = Ddt_minicc.Codegen.compile ~name:"t" src in
  let cfg =
    Config.make ~driver_name:"t" ~image ~driver_class:Config.Network
      ~workload:[ Config.W_initialize ] ~use_annotations ?annotations ()
  in
  Ddt.test_driver cfg

let minimal_driver body = Printf.sprintf {|
  const TAG = 1;
  int g;
  int chars[8];
  int initialize(void) {
%s
    return 0;
  }
  int driver_entry(void) {
    chars[0] = initialize;
    return NdisMRegisterMiniport(chars);
  }
|} body

(* --- set combinators ----------------------------------------------------- *)

let test_set_dispatch () =
  let hits = ref [] in
  let a =
    Annot.make ~api:"Foo"
      ~pre:(fun _ _ -> hits := "pre" :: !hits)
      ~post:(fun _ _ -> hits := "post" :: !hits)
      ~doc:"test" ()
  in
  let set = Annot.combine [ a ] Annot.empty in
  let dummy_mach =
    {
      Mach.arg = (fun _ -> 0);
      arg_expr = (fun _ -> Expr.word 0);
      set_ret = ignore;
      get_ret = (fun () -> 0);
      set_ret_expr = ignore;
      read_u32 = (fun _ -> 0);
      write_u32 = (fun _ _ -> ());
      read_u8 = (fun _ -> 0);
      write_u8 = (fun _ _ -> ());
      read_expr_u32 = (fun _ -> Expr.word 0);
      write_expr_u32 = (fun _ _ -> ());
      read_expr_u8 = (fun _ -> Expr.byte 0);
      write_expr_u8 = (fun _ _ -> ());
      fresh_symbolic = (fun _ w -> Expr.const w 0);
      assume = ignore;
      fork = ignore;
      discard = ignore;
      kstate = (fun () -> assert false);
    }
  in
  let ks =
    Ddt_kernel.Kstate.create
      ~device:
        (Ddt_kernel.Pci.assign_resources
           { Ddt_kernel.Pci.vendor_id = 1; device_id = 1; revision = 0;
             bar_sizes = []; irq_line = 1 }
           ~mmio_base:Ddt_dvm.Layout.mmio_base)
      ()
  in
  Annot.run_pre set "Foo" ks dummy_mach;
  Annot.run_post set "Foo" ks dummy_mach;
  Annot.run_pre set "Bar" ks dummy_mach;
  Alcotest.(check (list string)) "only Foo fires" [ "post"; "pre" ] !hits

(* --- the registry annotation ---------------------------------------------- *)

let registry_driver = minimal_driver {|
    int cfg;
    int status = NdisOpenConfiguration(&cfg);
    if (status != 0) { return 1; }
    int depth = NdisReadConfiguration(cfg, "Depth", 4);
    NdisCloseConfiguration(cfg);
    if (depth == 0x12345) {
      int p = 0;
      *(p + 0) = 1;      // reachable only if the value can be anything
    }
|}

let test_registry_becomes_symbolic () =
  let r = run registry_driver in
  check_bool "magic registry value reached" true
    (List.exists
       (fun b -> b.Report.b_kind = Report.Segfault)
       r.Session.r_bugs)

let test_registry_concrete_without_annotations () =
  let r = run ~use_annotations:false registry_driver in
  check_int "concrete registry value misses it" 0
    (List.length r.Session.r_bugs)

let test_registry_nonnegative_constraint () =
  (* The paper's annotation discards negative values: a path guarded by
     "depth < 0" (signed) must be unreachable. *)
  let r =
    run
      (minimal_driver {|
    int cfg;
    int status = NdisOpenConfiguration(&cfg);
    if (status != 0) { return 1; }
    int depth = NdisReadConfiguration(cfg, "Depth", 4);
    NdisCloseConfiguration(cfg);
    if (depth < 0) {
      int p = 0;
      *(p + 0) = 1;      // must never execute
    }
|})
  in
  check_int "negative registry values are discarded" 0
    (List.length r.Session.r_bugs)

(* --- allocation-failure forks ----------------------------------------------- *)

let test_alloc_failure_fork () =
  (* Both outcomes must be explored; the failure path crashes. *)
  let r =
    run
      (minimal_driver {|
    int p;
    int status = NdisAllocateMemoryWithTag(&p, 64, TAG);
    if (status != 0) {
      int q = 0;
      *(q + 0) = 1;      // only on the annotation-forked failure path
    }
    else {
      NdisFreeMemory(p, 64, 0);
    }
|})
  in
  check_bool "failure path explored" true
    (List.exists
       (fun b ->
         b.Report.b_kind = Report.Segfault
         && List.mem_assoc "NdisAllocateMemoryWithTag" b.Report.b_choices)
       r.Session.r_bugs)

let test_alloc_failure_releases_resource () =
  (* On the forked failure path the allocation must not linger as a leak:
     a driver that handles the failure correctly stays clean. *)
  let r =
    run
      (minimal_driver {|
    int p;
    int status = NdisAllocateMemoryWithTag(&p, 64, TAG);
    if (status != 0) { return 1; }
    NdisFreeMemory(p, 64, 0);
|})
  in
  check_int "clean driver stays clean under forks" 0
    (List.length r.Session.r_bugs)

(* --- custom annotations -------------------------------------------------------- *)

let test_custom_annotation_constraint () =
  (* A custom annotation bounding a vendor API's return: paths outside the
     bound are infeasible. *)
  Ddt_kernel.Kapi.register "VendorGetCount" (fun _ks m -> m.Mach.set_ret 3);
  let bounded =
    Annot.make ~api:"VendorGetCount"
      ~post:(fun _ks m ->
        let v = m.Mach.fresh_symbolic "count" Expr.W32 in
        m.Mach.assume (Expr.cmp Expr.Leu v (Expr.word 4));
        m.Mach.set_ret_expr v)
      ~doc:"count is at most 4" ()
  in
  let src = minimal_driver {|
    int n = VendorGetCount();
    if (n > 4) {
      int p = 0;
      *(p + 0) = 1;      // unreachable under the annotation's bound
    }
    if (n == 4) { g = 1; }
|} in
  let r =
    run ~annotations:(Annot.combine Ddt_annot.Ndis_annotations.set [ bounded ])
      src
  in
  check_int "bounded annotation keeps the driver clean" 0
    (List.length r.Session.r_bugs)

let () =
  Alcotest.run "ddt_annot"
    [ ("dsl", [ Alcotest.test_case "set dispatch" `Quick test_set_dispatch ]);
      ("registry",
       [ Alcotest.test_case "becomes symbolic" `Quick
           test_registry_becomes_symbolic;
         Alcotest.test_case "concrete without annotations" `Quick
           test_registry_concrete_without_annotations;
         Alcotest.test_case "non-negative constraint" `Quick
           test_registry_nonnegative_constraint ]);
      ("allocation",
       [ Alcotest.test_case "failure fork explored" `Quick
           test_alloc_failure_fork;
         Alcotest.test_case "failure path releases resource" `Quick
           test_alloc_failure_releases_resource ]);
      ("custom",
       [ Alcotest.test_case "assume bounds the value" `Quick
           test_custom_annotation_constraint ]) ]
