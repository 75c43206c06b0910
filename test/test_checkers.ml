(* Unit tests for ddt_checkers: the report sink and the §3.6 diagnosis
   module, exercised on synthetic bug records. *)

open Ddt_checkers
module Replay = Ddt_trace.Replay
module Event = Ddt_trace.Event

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_bug ?(kind = Report.Segfault) ?(key = "k") ?(msg = "boom")
    ?(choices = []) ?(events = []) ?(replay = Replay.empty)
    ?(with_interrupt = false) () =
  {
    Report.b_kind = kind;
    b_driver = "unit";
    b_entry = "initialize";
    b_pc = 0x400100;
    b_message = msg;
    b_key = key;
    b_state_id = 1;
    b_events = events;
    b_mem_accesses = 0;
    b_choices = choices;
    b_with_interrupt = with_interrupt;
    b_replay = replay;
  }

(* --- the report sink ------------------------------------------------------ *)

let report sink b = Report.report sink ~key:b.Report.b_key (fun () -> b)

let test_sink_dedup () =
  let sink = Report.create_sink ~driver:"unit" in
  report sink (mk_bug ~key:"a" ());
  report sink (mk_bug ~key:"a" ~msg:"different text, same defect" ());
  report sink (mk_bug ~key:"b" ());
  check_int "two distinct bugs" 2 (Report.count sink);
  (* First report wins for a given key, and a seen key's bug (with its
     replay script) is never built. *)
  let first = List.hd (Report.bugs sink) in
  Alcotest.(check string) "first kept" "boom" first.Report.b_message;
  Report.report sink ~key:"a" (fun () -> Alcotest.fail "built a seen key");
  check_bool "key mismatch refused" true
    (try
       Report.report sink ~key:"c" (fun () -> mk_bug ~key:"d" ());
       false
     with Invalid_argument _ -> true)

let test_sink_order () =
  let sink = Report.create_sink ~driver:"unit" in
  List.iter
    (fun k -> report sink (mk_bug ~key:k ~msg:k ()))
    [ "one"; "two"; "three" ];
  Alcotest.(check (list string)) "first-reported order"
    [ "one"; "two"; "three" ]
    (List.map (fun b -> b.Report.b_message) (Report.bugs sink))

(* --- diagnosis ------------------------------------------------------------- *)

let test_diagnose_low_memory_headline () =
  let b =
    mk_bug ~kind:Report.Segfault
      ~choices:[ ("ExAllocatePoolWithTag", "failure") ]
      ()
  in
  let a = Diagnose.analyze b in
  Alcotest.(check string) "headline" "driver crashes in low-memory situations"
    a.Diagnose.a_headline;
  check_bool "technical chain mentions the failed alloc" true
    (List.exists
       (fun s ->
         let needle = "ExAllocatePoolWithTag failed" in
         let rec go i =
           i + String.length needle <= String.length s
           && (String.sub s i (String.length needle) = needle || go (i + 1))
         in
         go 0)
       a.Diagnose.a_technical)

let test_diagnose_interrupt_headline () =
  let b =
    mk_bug ~kind:Report.Race_condition ~with_interrupt:true
      ~events:[ Event.E_interrupt { site = "after RegisterIsr"; phase = "isr" } ]
      ()
  in
  let a = Diagnose.analyze b in
  Alcotest.(check string) "headline"
    "driver crashes if an interrupt arrives after RegisterIsr"
    a.Diagnose.a_headline

let test_diagnose_spec_ranges () =
  let replay =
    { Replay.empty with
      Replay.rs_inputs = [ ("hw_bar0+0x4", 0x80); ("registry_param", 3) ] }
  in
  let b = mk_bug ~replay () in
  (* Permissive spec: any hardware. *)
  check_bool "permissive" true
    ((Diagnose.analyze b).Diagnose.a_hardware = Diagnose.Any_hardware);
  (* Register 4 limited to 0..0x7F: the pinned 0x80 is out of spec. *)
  let strict =
    { Diagnose.ds_registers = [ ("hw_bar0+0x4", 0, 0x7F) ];
      ds_default = (0, 255) }
  in
  check_bool "strict" true
    ((Diagnose.analyze ~spec:strict b).Diagnose.a_hardware
     = Diagnose.Malfunction_only);
  (* A different register's limit does not apply. *)
  let other =
    { Diagnose.ds_registers = [ ("hw_bar0+0x8", 0, 0) ]; ds_default = (0, 255) }
  in
  check_bool "other register" true
    ((Diagnose.analyze ~spec:other b).Diagnose.a_hardware
     = Diagnose.Any_hardware);
  (* No device reads at all. *)
  let no_hw =
    mk_bug
      ~replay:{ Replay.empty with Replay.rs_inputs = [ ("registry_param", 1) ] }
      ()
  in
  check_bool "no dependence" true
    ((Diagnose.analyze no_hw).Diagnose.a_hardware
     = Diagnose.No_hardware_dependence)

let test_diagnose_depends_on () =
  let replay =
    { Replay.empty with
      Replay.rs_inputs =
        [ ("oid", 9); ("hw_bar0+0x0", 1); ("oid", 10) ] }
  in
  let a = Diagnose.analyze (mk_bug ~replay ()) in
  Alcotest.(check (list string)) "deduplicated inputs"
    [ "hw_bar0+0x0"; "oid" ]
    a.Diagnose.a_depends_on

let () =
  Alcotest.run "ddt_checkers"
    [ ("sink",
       [ Alcotest.test_case "dedup" `Quick test_sink_dedup;
         Alcotest.test_case "order" `Quick test_sink_order ]);
      ("diagnose",
       [ Alcotest.test_case "low-memory headline" `Quick
           test_diagnose_low_memory_headline;
         Alcotest.test_case "interrupt headline" `Quick
           test_diagnose_interrupt_headline;
         Alcotest.test_case "spec ranges" `Quick test_diagnose_spec_ranges;
         Alcotest.test_case "depends-on list" `Quick
           test_diagnose_depends_on ]) ]
