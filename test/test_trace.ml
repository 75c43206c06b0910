(* Tests for ddt_trace: events, replay scripts, crash dumps. *)

open Ddt_trace

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- events ------------------------------------------------------------- *)

let test_event_summary () =
  let v = Ddt_solver.Expr.fresh_var Ddt_solver.Expr.W8 in
  let events =
    [ Event.E_branch
        { pc = 2; taken = true; forked = true; cond = Ddt_solver.Expr.tru };
      Event.E_sym_create { name = "hw"; origin = "device read"; var = v };
      Event.E_interrupt { site = "s"; phase = "isr" } ]
  in
  let s = Event.summarize ~mem_accesses:7 events in
  check_str "first line"
    "7 memory accesses, 1 branches (1 forked), 1 symbolic values, 0 kernel \
     calls, 1 interrupts"
    (List.hd (String.split_on_char '\n' s));
  check_bool "mentions forked" true
    (let needle = "(1 forked)" in
     let rec go i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || go (i + 1))
     in
     go 0)

(* --- replay scripts ------------------------------------------------------- *)

let sample_script =
  {
    Replay.rs_inputs = [ ("registry_param", 5); ("hw_bar0+0x0", 255) ];
    rs_choices = [ ("NdisAllocateMemoryWithTag", "failure") ];
    rs_inject_sites = [ 0x400100; 0x400200 ];
    rs_entry = "initialize";
  }

let test_replay_roundtrip () =
  let s' = Replay.of_string (Replay.to_string sample_script) in
  check_bool "roundtrip" true (s' = sample_script)

let test_replay_malformed () =
  (match Replay.of_string "input\tx\tnotanumber\n" with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "should reject");
  match Replay.of_string "garbage line here\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "should reject"

let prop_replay_roundtrip =
  let gen =
    QCheck.Gen.(
      let name = map (Printf.sprintf "v%d") (int_bound 100) in
      let* inputs =
        list_size (int_bound 8) (pair name (int_bound 0xFFFF))
      in
      let* sites = list_size (int_bound 4) (int_bound 0xFFFFFF) in
      let* entry = oneofl [ "initialize"; "send"; "query" ] in
      return
        { Replay.rs_inputs = inputs; rs_choices = [ ("Api", "success") ];
          rs_inject_sites = sites; rs_entry = entry })
  in
  QCheck.Test.make ~count:200 ~name:"replay script roundtrip"
    (QCheck.make gen)
    (fun s -> Replay.of_string (Replay.to_string s) = s)

(* --- crash dumps ----------------------------------------------------------- *)

(* The on-disk encoding, byte for byte: little-endian 32-bit fields,
   values masked to 32 bits. *)
let test_crashdump_roundtrip () =
  let d =
    {
      Crashdump.d_pc = 0x400123;
      d_regs = [| 7; -1 |];
      d_note = "BUG";
      d_pages = [ (0x800000, Bytes.of_string "\xAD\xDE") ];
    }
  in
  check_str "encoding"
    ("DDMP" ^ "\x23\x01\x40\x00" ^ "\x02\x00\x00\x00"
     ^ "\x07\x00\x00\x00" ^ "\xFF\xFF\xFF\xFF" ^ "\x03\x00\x00\x00" ^ "BUG"
     ^ "\x01\x00\x00\x00" ^ "\x00\x00\x80\x00" ^ "\x02\x00\x00\x00"
     ^ "\xAD\xDE")
    (Bytes.to_string (Crashdump.to_bytes d))

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "ddt_trace"
    [ ("events",
       [ Alcotest.test_case "summary" `Quick test_event_summary ]);
      ("replay",
       [ Alcotest.test_case "roundtrip" `Quick test_replay_roundtrip;
         Alcotest.test_case "malformed" `Quick test_replay_malformed;
         qtest prop_replay_roundtrip ]);
      ("crashdump",
       [ Alcotest.test_case "roundtrip" `Quick test_crashdump_roundtrip ]) ]
