(* Integration tests for ddt_core: sessions over purpose-built drivers
   exercising each checker and the session machinery (workload phases,
   annotations, replay). *)

open Ddt_core
module Report = Ddt_checkers.Report
module Exec = Ddt_symexec.Exec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let harness ~extra ~init_body ~query_body = Printf.sprintf {|
  const TAG = 0x54455354;
  int g_ctx;
  int chars[8];
%s
  int initialize(void) {
%s
    return 0;
  }
  int query(int oid, int buf, int len) {
%s
    return 4;
  }
  int driver_entry(void) {
    chars[0] = initialize;
    chars[1] = query;
    return NdisMRegisterMiniport(chars);
  }
|} extra init_body query_body

let run ?(workload = Config.[ W_initialize; W_query ]) src =
  let image = Ddt_minicc.Codegen.compile ~name:"t" src in
  Ddt.test_driver
    (Config.make ~driver_name:"t" ~image ~driver_class:Config.Network
       ~workload ())

let kinds r =
  List.map (fun b -> b.Report.b_kind) r.Session.r_bugs |> List.sort compare

let messages r = List.map (fun b -> b.Report.b_message) r.Session.r_bugs

let has_message r needle =
  List.exists
    (fun m ->
      let n = String.length needle and l = String.length m in
      let rec go i = i + n <= l && (String.sub m i n = needle || go (i + 1)) in
      go 0)
    (messages r)

(* --- memcheck rules ----------------------------------------------------- *)

let test_below_sp_access () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int arr[4];
    arr[0] = 1;
    int p = arr;
    int v = *(p - 64);   // below the stack pointer
    g_ctx = v;
  |}
         ~query_body:"")
  in
  check_bool "below-sp flagged" true (has_message r "below the stack pointer")

let test_use_after_free () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int p;
    int status = NdisAllocateMemoryWithTag(&p, 32, TAG);
    if (status != 0) { return 1; }
    NdisFreeMemory(p, 32, 0);
    g_ctx = *(p + 0);    // use after free
  |}
         ~query_body:"")
  in
  check_bool "use-after-free flagged" true
    (List.mem Report.Memory_error (kinds r))

let test_kernel_handle_deref () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int cfg;
    int status = NdisOpenConfiguration(&cfg);
    if (status != 0) { return 1; }
    g_ctx = *(cfg + 0);  // handles are opaque to drivers
    NdisCloseConfiguration(cfg);
  |}
         ~query_body:"")
  in
  check_bool "handle deref flagged" true (has_message r "kernel handle")

let test_write_to_code () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int p = driver_entry;
    *(p + 0) = 0;        // self-patching driver
  |}
         ~query_body:"")
  in
  check_bool "code write flagged" true (has_message r "code section")

(* --- loopcheck ------------------------------------------------------------ *)

let test_infinite_loop () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int i = 1;
    while (i) { g_ctx = g_ctx + 1; }
  |}
         ~query_body:"")
  in
  check_bool "hang flagged" true (List.mem Report.Infinite_loop (kinds r))

(* --- lock discipline at entry exit ------------------------------------------ *)

let test_lock_held_at_exit () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    NdisAllocateSpinLock(chars + 28);
    NdisAcquireSpinLock(chars + 28);
  |}
         ~query_body:"")
  in
  check_bool "held lock flagged" true (has_message r "still held")

(* --- session mechanics -------------------------------------------------------- *)

let test_workload_sequencing () =
  (* The query phase must run against the post-initialize state. *)
  let r =
    run
      (harness ~extra:""
         ~init_body:{| g_ctx = 7; |}
         ~query_body:{|
    if (g_ctx != 7) {
      int p = 0;
      *(p + 0) = 1;    // would crash if init state were lost
    }
  |})
  in
  check_int "no bugs: state flowed across phases" 0
    (List.length r.Session.r_bugs);
  check_bool "both phases invoked" true (r.Session.r_invocations >= 2)

let test_symbolic_oid_sweep () =
  (* With annotations the OID is symbolic: the magic value is reached. *)
  let src =
    harness ~extra:""
      ~init_body:{| g_ctx = 1; |}
      ~query_body:{|
    if (oid == 0xBAD) {
      int p = 0;
      *(p + 0) = 1;
    }
  |}
  in
  let with_annot = run src in
  check_bool "symbolic OID reaches the magic value" true
    (List.mem Report.Segfault (kinds with_annot));
  let image = Ddt_minicc.Codegen.compile ~name:"t" src in
  let cfg =
    Config.make ~driver_name:"t" ~image ~driver_class:Config.Network
      ~workload:Config.[ W_initialize; W_query ]
      ~use_annotations:false ()
  in
  let without = Ddt.test_driver cfg in
  check_int "concrete OIDs miss it" 0 (List.length without.Session.r_bugs)

let test_timer_workload () =
  (* A timer armed during init fires in the timers phase. *)
  let src =
    harness
      ~extra:{|
  int tick(int ctx) {
    int p = 0;
    *(p + 0) = 1;      // crashes when the timer actually fires
    return 0;
  }
|}
      ~init_body:{|
    NdisMInitializeTimer(chars + 28, tick, 0);
    NdisMSetTimer(chars + 28, 50);
  |}
      ~query_body:""
  in
  let r = run ~workload:Config.[ W_initialize; W_timers ] src in
  check_bool "timer handler ran and crashed" true
    (List.mem Report.Segfault (kinds r))

let test_replay_reproduces () =
  let entry = Ddt_drivers.Corpus.find "rtl8029" in
  let r = Ddt.test_driver (Ddt_drivers.Corpus.config entry) in
  let bug = List.hd r.Session.r_bugs in
  let cfg2 =
    { (Ddt_drivers.Corpus.config entry) with
      Config.replay = Some bug.Report.b_replay }
  in
  let r2 = Ddt.test_driver cfg2 in
  check_bool "replay reproduces the bug" true
    (List.exists
       (fun b -> b.Report.b_key = bug.Report.b_key)
       r2.Session.r_bugs)

(* Symbolic interrupts come with symbolic hardware (§3.3): AudioPCI's
   two interrupt races show up under symbolic device reads and not with
   a concrete device mapped, the stress baseline's setting. *)
let test_interrupts_need_symbolic_hardware () =
  let cfg = Ddt_drivers.Corpus.config (Ddt_drivers.Corpus.find "audiopci") in
  let interrupted (cfg : Config.t) =
    List.filter
      (fun b -> b.Report.b_with_interrupt)
      (Ddt.test_driver cfg).Session.r_bugs
  in
  let symbolic = interrupted cfg in
  check_int "two races under symbolic interrupts" 2 (List.length symbolic);
  check_bool "both are races" true
    (List.for_all (fun b -> b.Report.b_kind = Report.Race_condition) symbolic);
  check_int "none with a concrete device" 0
    (List.length (interrupted { cfg with Config.concrete_device = Some 42 }))

let test_coverage_counts_consistent () =
  let entry = Ddt_drivers.Corpus.find "pcnet" in
  let r = Ddt.test_driver (Ddt_drivers.Corpus.config entry) in
  (match List.rev r.Session.r_coverage with
   | [] -> Alcotest.fail "no coverage points"
   | last :: _ ->
       check_int "curve ends at the covered reachable blocks"
         r.Session.r_covered_reachable last.Session.cp_blocks;
       check_bool "monotone time" true
         (let rec mono = function
            | (a : Session.coverage_point) :: (b :: _ as rest) ->
                a.Session.cp_time <= b.Session.cp_time && mono rest
            | _ -> true
          in
          mono r.Session.r_coverage))

(* --- apicheck rules ------------------------------------------------------- *)

let test_free_length_mismatch () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int p;
    int status = NdisAllocateMemoryWithTag(&p, 64, TAG);
    if (status != 0) { return 1; }
    NdisFreeMemory(p, 32, 0);     // wrong length
  |}
         ~query_body:"")
  in
  check_bool "length mismatch flagged" true (has_message r "length 32")

let test_register_interrupt_without_attributes () =
  let src = {|
    int chars[8];
    int isr(int ctx) { return 0; }
    int initialize(void) {
      NdisMRegisterInterrupt(9);   // no NdisMSetAttributes first
      return 0;
    }
    int driver_entry(void) {
      chars[0] = initialize;
      chars[4] = isr;
      return NdisMRegisterMiniport(chars);
    }
  |} in
  let r = run ~workload:Config.[ W_initialize ] src in
  check_bool "missing attributes flagged" true
    (has_message r "null miniport context")

(* --- the failed-initialize contract --------------------------------------- *)

(* Every initialize path fails (allocation failure or not); every later
   entry point would crash if it ran. NDIS never calls a miniport again
   after a failed MiniportInitialize, so no later phase may run. *)
let failing_init_src = {|
  const TAG = 0x54455354;
  int chars[8];
  int crash(void) {
    int p = 0;
    *(p + 0) = 1;
    return 0;
  }
  int initialize(void) {
    int p;
    int status = NdisAllocateMemoryWithTag(&p, 32, TAG);
    if (status != 0) { return 1; }
    NdisFreeMemory(p, 32, 0);
    return 2;
  }
  int query(int oid, int buf, int len) { return crash(); }
  int set(int oid, int buf, int len) { return crash(); }
  int send(int pkt, int len) { return crash(); }
  int halt(void) { return crash(); }
  int reset(void) { return crash(); }
  int driver_entry(void) {
    chars[0] = initialize;
    chars[1] = query;
    chars[2] = set;
    chars[3] = send;
    chars[6] = halt;
    chars[7] = reset;
    return NdisMRegisterMiniport(chars);
  }
|}

let failing_init_cfg () =
  let image = Ddt_minicc.Codegen.compile ~name:"t" failing_init_src in
  Config.make ~driver_name:"t" ~image ~driver_class:Config.Network ()

let check_nothing_after_init what r =
  check_int (what ^ ": only load and initialize invoked") 2
    r.Session.r_invocations;
  List.iter
    (fun b ->
      Alcotest.failf "%s: %s reported from %s" what b.Report.b_key
        b.Report.b_entry)
    r.Session.r_bugs

let test_failed_init_ends_session () =
  check_nothing_after_init "run" (Ddt.test_driver (failing_init_cfg ()))

(* --- lock defects ------------------------------------------------------------ *)

(* The kernel bugchecks a recursive acquire and a release of a lock that
   is not held, so each is one crash report and no lock-rule report: the
   SDV sample's eight seeded defects give eight findings, and the
   deadlock and extra-release synthetics one each. *)
let test_one_report_per_lock_defect () =
  let bugs image =
    let cfg =
      Config.make ~driver_name:"sdv_sample" ~image
        ~driver_class:Config.Network
        ~descriptor:Ddt_drivers.Sdv_sample.descriptor
        ~registry:Ddt_drivers.Sdv_sample.registry ()
    in
    (Ddt.test_driver cfg).Session.r_bugs
  in
  check_int "sdv sample findings" 8
    (List.length (bugs (Ddt_drivers.Sdv_sample.image ())));
  let synthetics = Ddt_drivers.Sdv_sample.synthetic_images () in
  List.iter
    (fun name ->
      match bugs (List.assoc name synthetics) with
      | [ b ] ->
          check_bool (name ^ " is a kernel crash") true
            (String.starts_with ~prefix:"crash:" b.Report.b_key)
      | bs -> Alcotest.failf "%s: %d findings, want 1" name (List.length bs))
    [ "deadlock"; "extra_release" ]

(* --- report JSON ------------------------------------------------------------- *)

(* The report lands under a temporary name and is renamed into place:
   no tmp file is left behind, and the file holds the whole document. *)
let test_write_file_atomic () =
  let dir = Filename.temp_dir "ddt_report" "" in
  let path = Filename.concat dir "report.json" in
  let cfg = Ddt_drivers.Corpus.config (Ddt_drivers.Corpus.find "audiopci") in
  let r =
    Session.run
      { cfg with Config.max_total_steps = 60_000 }
  in
  let summary = Report_json.of_result r in
  (match Report_json.write_file path summary with
   | Ok () -> ()
   | Error e -> Alcotest.failf "write_file: %s" e);
  check_int "no tmp litter" 1 (Array.length (Sys.readdir dir));
  let doc = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "document round-trips"
    (Report_json.to_string summary) doc;
  Sys.remove path;
  Sys.rmdir dir

(* --- evidence artifacts ------------------------------------------------------ *)

let test_execution_tree () =
  let entry = Ddt_drivers.Corpus.find "rtl8029" in
  let r = Ddt.test_driver (Ddt_drivers.Corpus.config entry) in
  (* The execution tree's size and depth, counted as states are
     created. *)
  let s = r.Session.r_stats in
  check_int "states" 127 s.Exec.st_states_created;
  check_int "depth" 17 s.Exec.st_tree_depth;
  List.iter
    (fun b ->
      check_bool "bug state was created" true
        (b.Report.b_state_id >= 1
         && b.Report.b_state_id <= s.Exec.st_states_created))
    r.Session.r_bugs

let test_crashdumps () =
  let entry = Ddt_drivers.Corpus.find "rtl8029" in
  let cfg =
    { (Ddt_drivers.Corpus.config entry) with Config.collect_crashdumps = true }
  in
  let r = Ddt.test_driver cfg in
  check_bool "dumps produced for crashes" true (r.Session.r_crashdumps <> []);
  let _, d = List.hd r.Session.r_crashdumps in
  check_bool "dump has pages" true (d.Ddt_trace.Crashdump.d_pages <> []);
  (* The encoding holds every register and every page in full ([to_bytes]
     itself is pinned byte for byte by test_trace). *)
  Ddt_trace.Crashdump.(
    check_int "encoded size"
      (20 + (4 * Array.length d.d_regs) + String.length d.d_note
       + List.fold_left (fun n (_, p) -> n + 8 + Bytes.length p) 0 d.d_pages)
      (Bytes.length (to_bytes d)));
  (* A dump holds exactly the crashed state's touched pages: two data
     pages written before a null dereference, not the device page its
     register read touched. *)
  let img =
    Ddt_dvm.Asm.assemble ~name:"dump" {|
.func driver_entry
driver_entry:
    lea   r4, first
    movi  r1, 0x1234
    stw   [r4+0], r1
    stw   [r4+4096], r1
    movi  r7, 0xD0000000
    ldw   r8, [r7+0]
    movi  r2, 0
    ldw   r0, [r2+0]
    ret
.data
first: .space 4100
|}
  in
  let base = Ddt_dvm.Mem.create () in
  let loaded = Ddt_dvm.Image.load img base ~base:Ddt_dvm.Layout.image_base in
  let dev =
    Ddt_kernel.Pci.assign_resources
      { Ddt_kernel.Pci.vendor_id = 1; device_id = 2; revision = 0;
        bar_sizes = [ 0x1000 ]; irq_line = 9 }
      ~mmio_base:Ddt_dvm.Layout.mmio_base
  in
  let leaders = (Ddt_staticx.Icfg.build img).Ddt_staticx.Icfg.universe in
  let eng =
    Exec.create ~leaders loaded base (Ddt_hw.Symdev.create dev)
  in
  let st = Exec.new_root_state eng (Ddt_kernel.Kstate.create ~device:dev ()) in
  Exec.start_invocation eng st ~name:"dump"
    ~addr:(loaded.Ddt_dvm.Image.base + img.Ddt_dvm.Image.entry) ~args:[];
  Exec.run eng ~max_total_steps:20_000_000;
  let st = List.hd (Exec.finished eng) in
  let d = Exec.crashdump st ~note:"null dereference" in
  let pages = List.map fst d.Ddt_trace.Crashdump.d_pages in
  check_bool "dump pages are the touched pages" true
    (pages
     = Ddt_symexec.Symstate.(Pages.elements st.touched_pages));
  check_int "two data pages" 2 (List.length pages);
  let first = loaded.Ddt_dvm.Image.data_start in
  let word addr =
    let page = List.assoc (addr land lnot 0xFFF) d.Ddt_trace.Crashdump.d_pages in
    Int32.to_int (Bytes.get_int32_le page (addr land 0xFFF))
  in
  check_int "first store in the dump" 0x1234 (word first);
  check_int "second store in the dump" 0x1234 (word (first + 4096))

(* --- §3.6 automated diagnosis ---------------------------------------------- *)

let test_diagnose_low_memory () =
  let entry = Ddt_drivers.Corpus.find "rtl8029" in
  let r = Ddt.test_driver (Ddt_drivers.Corpus.config entry) in
  let leak =
    List.find (fun b -> b.Report.b_kind = Report.Resource_leak)
      r.Session.r_bugs
  in
  let a = Ddt_checkers.Diagnose.analyze leak in
  check_bool "low-memory headline" true
    (a.Ddt_checkers.Diagnose.a_headline
     = "driver leaks resources in low-memory situations")

let test_diagnose_hardware_verdict () =
  let entry = Ddt_drivers.Corpus.find "rtl8029" in
  let r = Ddt.test_driver (Ddt_drivers.Corpus.config entry) in
  let race =
    List.find (fun b -> b.Report.b_kind = Report.Race_condition)
      r.Session.r_bugs
  in
  (* Under a permissive spec the race is reachable with conforming
     hardware... *)
  let a = Ddt_checkers.Diagnose.analyze race in
  check_bool "any hardware" true
    (a.Ddt_checkers.Diagnose.a_hardware = Ddt_checkers.Diagnose.Any_hardware);
  (* ...but if the vendor spec says the interrupt-status register reads 0
     until interrupts are enabled, the ISR's "(status & 3) != 0" entry
     condition is out of spec: the paper's §3.6 malfunction analysis. *)
  let strict =
    { Ddt_checkers.Diagnose.ds_registers = [ ("hw_bar0+0x0", 0, 0) ];
      ds_default = (0, 255) }
  in
  let a' = Ddt_checkers.Diagnose.analyze ~spec:strict race in
  check_bool "malfunction only under the strict spec" true
    (a'.Ddt_checkers.Diagnose.a_hardware
     = Ddt_checkers.Diagnose.Malfunction_only);
  (* A bug with no device dependence at all: the leak. *)
  let leak =
    List.find (fun b -> b.Report.b_kind = Report.Resource_leak)
      r.Session.r_bugs
  in
  let al = Ddt_checkers.Diagnose.analyze ~spec:strict leak in
  check_bool "leak path reads no device registers" true
    (al.Ddt_checkers.Diagnose.a_hardware
     = Ddt_checkers.Diagnose.No_hardware_dependence)

(* A verdict left Unknown is not a failure: the engine treats it
   conservatively, notes it once per state as an incident with a replay
   script, and the session goes on. Forcing every 3rd uncached solve
   Unknown stands in for groups the solve budget cannot decide. *)
let test_forced_unknown () =
  let module Solver = Ddt_solver.Solver in
  let module Guard = Ddt_symexec.Guard in
  let solves = ref 0 in
  Solver.set_force_unknown
    (Some
       (fun () ->
         incr solves;
         !solves mod 3 = 0));
  let r =
    Fun.protect
      ~finally:(fun () -> Solver.set_force_unknown None)
      (fun () ->
        Ddt.test_driver
          (Ddt_drivers.Corpus.config (Ddt_drivers.Corpus.find "rtl8029")))
  in
  check_bool "session completed" true (r.Session.r_finished_states > 0);
  check_bool "verdicts left Unknown" true
    (r.Session.r_stats.Exec.st_solver.Solver.s_unknowns > 0);
  let unknowns =
    List.filter
      (fun (i : Report.incident) -> i.Guard.inc_kind = Guard.Solver_exhaustion)
      r.Session.r_incidents
  in
  check_bool "Unknowns surface as incidents" true (unknowns <> []);
  let ids = List.map (fun (i : Report.incident) -> i.Guard.inc_state_id) unknowns in
  check_int "at most one incident per state" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (i : Report.incident) ->
      check_bool "incident names an entry" true (i.Guard.inc_entry <> "");
      Alcotest.(check string) "replay names the entry" i.Guard.inc_entry
        i.Guard.inc_replay.Ddt_trace.Replay.rs_entry)
    unknowns

let () =
  Alcotest.run "ddt_core"
    [ ("memcheck rules",
       [ Alcotest.test_case "below-sp access" `Quick test_below_sp_access;
         Alcotest.test_case "use after free" `Quick test_use_after_free;
         Alcotest.test_case "kernel handle deref" `Quick
           test_kernel_handle_deref;
         Alcotest.test_case "write to code" `Quick test_write_to_code ]);
      ("liveness",
       [ Alcotest.test_case "infinite loop" `Quick test_infinite_loop;
         Alcotest.test_case "lock held at exit" `Quick
           test_lock_held_at_exit ]);
      ("session",
       [ Alcotest.test_case "workload sequencing" `Quick
           test_workload_sequencing;
         Alcotest.test_case "symbolic OID sweep" `Quick
           test_symbolic_oid_sweep;
         Alcotest.test_case "timer workload" `Quick test_timer_workload;
         Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces;
         Alcotest.test_case "coverage accounting" `Quick
           test_coverage_counts_consistent;
         Alcotest.test_case "failed initialize ends the session" `Quick
           test_failed_init_ends_session;
         Alcotest.test_case "interrupts need symbolic hardware" `Quick
           test_interrupts_need_symbolic_hardware ]);
      ("lock defects",
       [ Alcotest.test_case "one report per lock defect" `Quick
           test_one_report_per_lock_defect ]);
      ("report-json",
       [ Alcotest.test_case "atomic write_file" `Quick
           test_write_file_atomic ]);
      ("resilience",
       [ Alcotest.test_case "forced Unknowns quarantined"
           `Quick test_forced_unknown ]);
      ("apicheck",
       [ Alcotest.test_case "free length mismatch" `Quick
           test_free_length_mismatch;
         Alcotest.test_case "interrupt before attributes" `Quick
           test_register_interrupt_without_attributes ]);
      ("evidence",
       [ Alcotest.test_case "execution tree" `Quick test_execution_tree;
         Alcotest.test_case "crash dumps" `Quick test_crashdumps ]);
      ("usb",
       [ Alcotest.test_case "usb driver bugs found" `Quick (fun () ->
             let cfg =
               Config.make ~driver_name:"usbnic"
                 ~image:(Ddt_drivers.Usb_nic.image ())
                 ~driver_class:Config.Network ()
             in
             let r = Ddt.test_driver cfg in
             Alcotest.(check bool) "both usb bugs found" true
               (List.length r.Session.r_bugs >= 2);
             Alcotest.(check bool) "all under symbolic interrupt" true
               (List.for_all
                  (fun b -> b.Report.b_with_interrupt)
                  r.Session.r_bugs));
         Alcotest.test_case "fixed usb driver clean" `Quick (fun () ->
             let cfg =
               Config.make ~driver_name:"usbnic-fixed"
                 ~image:(Ddt_drivers.Usb_nic.fixed_image ())
                 ~driver_class:Config.Network ()
             in
             let r = Ddt.test_driver cfg in
             Alcotest.(check int) "clean" 0 (List.length r.Session.r_bugs));
         Alcotest.test_case "usb malfunction verdict" `Quick (fun () ->
             let cfg =
               Config.make ~driver_name:"usbnic"
                 ~image:(Ddt_drivers.Usb_nic.image ())
                 ~driver_class:Config.Network ()
             in
             let r = Ddt.test_driver cfg in
             let corruption =
               List.find
                 (fun b ->
                   String.length b.Report.b_key >= 4
                   && String.sub b.Report.b_key 0 4 = "mem:")
                 r.Session.r_bugs
             in
             let spec =
               { Ddt_checkers.Diagnose.ds_registers =
                   [ ("usb_ep1_len", 0, 63) ];
                 ds_default = (0, 255) }
             in
             Alcotest.(check bool) "malfunction only" true
               ((Ddt_checkers.Diagnose.analyze ~spec corruption)
                  .Ddt_checkers.Diagnose.a_hardware
                = Ddt_checkers.Diagnose.Malfunction_only)) ]);
      ("diagnose",
       [ Alcotest.test_case "low-memory classification" `Quick
           test_diagnose_low_memory;
         Alcotest.test_case "hardware verdict" `Quick
           test_diagnose_hardware_verdict ]) ]
