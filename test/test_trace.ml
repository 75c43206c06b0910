(* Tests for ddt_trace: events, execution trees, replay scripts, crash
   dumps. *)

open Ddt_trace

let check_int = Alcotest.(check int)
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

(* --- execution tree ------------------------------------------------------ *)

let test_tree () =
  (* 1 forks into 2 and 3; 3 forks into 4. *)
  let t =
    Tree.build
      [ (1, 0, "root", 2); (2, 1, "returned 0", 0); (3, 1, "crashed", 1);
        (4, 3, "discarded", 0) ]
  in
  check_int "size" 4 (Tree.size t);
  Alcotest.(check (list int)) "roots" [ 1 ] (Tree.roots t);
  check_int "depth" 3 (Tree.depth t);
  Alcotest.(check (list int)) "path to root" [ 4; 3; 1 ]
    (Tree.path_to_root t 4);
  (match Tree.node t 1 with
   | Some n -> Alcotest.(check (list int)) "children" [ 2; 3 ] n.Tree.t_children
   | None -> Alcotest.fail "node 1");
  let rendering = Format.asprintf "%a" Tree.pp t in
  check_bool "renders all states" true
    (List.for_all
       (fun needle ->
         let rec go i =
           i + String.length needle <= String.length rendering
           && (String.sub rendering i (String.length needle) = needle
               || go (i + 1))
         in
         go 0)
       [ "state 1"; "state 2"; "state 3"; "state 4" ])

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
      ("tree", [ Alcotest.test_case "build and query" `Quick test_tree ]);
      ("replay",
       [ Alcotest.test_case "roundtrip" `Quick test_replay_roundtrip;
         Alcotest.test_case "malformed" `Quick test_replay_malformed;
         qtest prop_replay_roundtrip ]);
      ("crashdump",
       [ Alcotest.test_case "roundtrip" `Quick test_crashdump_roundtrip ]) ]
