(* End-to-end over the full corpus: DDT must find every Table 2 bug kind
   in every buggy driver, and nothing in the fixed variants (the paper
   reports zero false positives). *)

open Ddt_core
module Report = Ddt_checkers.Report
module Corpus = Ddt_drivers.Corpus

let run ?(fixed = false) entry =
  Ddt.test_driver (Corpus.config ~fixed entry)

let expected_kind_counts entry =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (k, _) ->
      Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0))
    entry.Corpus.expected_bugs;
  tbl

let check_driver entry () =
  let r = run entry in
  Format.printf "%a@." Ddt.pp_report r;
  let found = List.map (fun b -> b.Report.b_kind) r.Session.r_bugs in
  let count k = List.length (List.filter (( = ) k) found) in
  Hashtbl.iter
    (fun k expected ->
      let msg =
        Printf.sprintf "%s: %d x %s" entry.Corpus.short expected
          (Report.string_of_kind k)
      in
      Alcotest.(check bool) msg true (count k >= expected))
    (expected_kind_counts entry)

let check_fixed entry () =
  let r = run ~fixed:true entry in
  List.iter
    (fun b -> Format.printf "unexpected in fixed %s: %a@." entry.Corpus.short
        Report.pp_bug b)
    r.Session.r_bugs;
  Alcotest.(check int)
    (entry.Corpus.short ^ " fixed variant is clean")
    0
    (List.length r.Session.r_bugs)

let total_bug_count () =
  (* The headline number: 14 bugs across the six drivers. *)
  let total =
    List.fold_left
      (fun acc e -> acc + List.length (run e).Session.r_bugs)
      0 Corpus.all
  in
  Alcotest.(check bool)
    (Printf.sprintf "found %d bugs total (paper: 14 across 6 drivers)" total)
    true (total >= 14)

(* Replay fidelity (§3.5): every bug's script, replayed alone, must
   reproduce its own key and report nothing the full session does not
   also report. *)
let check_replays entry () =
  let cfg = Corpus.config entry in
  let keys r = List.map (fun b -> b.Report.b_key) r.Session.r_bugs in
  let full = run entry in
  let full_keys = keys full in
  List.iter
    (fun b ->
      let target = b.Report.b_key in
      let replayed =
        keys (Ddt.test_driver { cfg with Config.replay = Some b.Report.b_replay })
      in
      Alcotest.(check bool)
        (Printf.sprintf "replay of %s reports it" target)
        true (List.mem target replayed);
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "replay of %s: %s is in the full session" target k)
            true (List.mem k full_keys))
        replayed)
    full.Session.r_bugs

let () =
  let driver_cases =
    List.concat_map
      (fun e ->
        [ Alcotest.test_case (e.Corpus.short ^ " buggy") `Quick
            (check_driver e);
          Alcotest.test_case (e.Corpus.short ^ " fixed") `Quick
            (check_fixed e) ])
      Corpus.all
  in
  Alcotest.run "ddt_e2e_corpus"
    [ ("drivers", driver_cases);
      ("replay",
       List.map
         (fun e ->
           Alcotest.test_case (e.Corpus.short ^ " bugs replay faithfully")
             `Quick (check_replays e))
         Corpus.all);
      ("summary",
       [ Alcotest.test_case "14 bugs total" `Quick total_bug_count ]) ]
