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

(* A tripwire for lost cache hits: every corpus session's cache misses
   and bit-blasts stay within twice their count at the time the cache
   became reuse-only, plus 4. A change that stops stored models from
   applying fails here rather than only in a benchmark. Each row is
   (driver, fixed, misses, bit-blasts) as measured then. *)
let solver_counts =
  [ ("pro1000", false, 18, 5); ("pro1000", true, 18, 5);
    ("pro100", false, 9, 1); ("pro100", true, 9, 1);
    ("ac97", false, 2, 0); ("ac97", true, 2, 0);
    ("audiopci", false, 2, 0); ("audiopci", true, 2, 0);
    ("pcnet", false, 5, 0); ("pcnet", true, 5, 0);
    ("rtl8029", false, 6, 2); ("rtl8029", true, 6, 0);
    ("deeploop", false, 5, 1); ("deeploop", true, 5, 1) ]

let check_solver_counts () =
  List.iter
    (fun (short, fixed, misses, blasts) ->
      let r = run ~fixed (Corpus.find short) in
      let sv = r.Session.r_stats.Ddt_symexec.Exec.st_solver in
      let bounded what got n =
        Alcotest.(check bool)
          (Printf.sprintf "%s%s: %d %s <= 2 x %d + 4" short
             (if fixed then " fixed" else "") got what n)
          true
          (got <= (2 * n) + 4)
      in
      bounded "misses" sv.Ddt_solver.Solver.s_cache_misses misses;
      bounded "bit-blasts" sv.Ddt_solver.Solver.s_bitblast_solves blasts)
    solver_counts

(* The ICFG's reachable leaders are the engine's only blocks: on every
   variant the blocks never reached are universe leaders, and together
   with the blocks the engine covered they make up the universe exactly,
   so every covered block is a universe leader too. *)
let check_single_universe () =
  let check_int = Alcotest.(check int) in
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun fixed ->
          let name = e.Corpus.short ^ if fixed then " fixed" else "" in
          let image =
            if fixed then e.Corpus.fixed_image () else e.Corpus.image ()
          in
          let universe =
            (Ddt_staticx.Icfg.build image).Ddt_staticx.Icfg.universe
          in
          let r = run ~fixed e in
          let covered =
            r.Session.r_stats.Ddt_symexec.Exec.st_blocks_covered
          in
          let never = r.Session.r_never_reached in
          check_int (name ^ ": universe size") (List.length universe)
            r.Session.r_reachable_blocks;
          check_int (name ^ ": covered reachable is the engine's count")
            covered r.Session.r_covered_reachable;
          Alcotest.(check bool)
            (name ^ ": never reached are universe leaders") true
            (List.sort_uniq compare never = never
             && List.for_all (fun l -> List.mem l universe) never);
          check_int (name ^ ": covered + never reached = universe")
            (List.length universe) (covered + List.length never);
          check_int (name ^ ": coverage curve ends at the covered count")
            covered
            (match List.rev r.Session.r_coverage with
             | [] -> 0
             | p :: _ -> p.Session.cp_blocks))
        [ false; true ])
    Corpus.all

(* A session leaves nothing behind that steers the next one: run back to
   back in one process, each variant writes the same report byte for
   byte. *)
let check_back_to_back () =
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun fixed ->
          let doc () =
            Report_json.to_string (Report_json.of_result (run ~fixed e))
          in
          let name = e.Corpus.short ^ if fixed then " fixed" else "" in
          let first = doc () in
          Alcotest.(check string) (name ^ ": same report") first (doc ()))
        [ false; true ])
    Corpus.all

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
       [ Alcotest.test_case "14 bugs total" `Quick total_bug_count;
         Alcotest.test_case "one block universe" `Quick
           check_single_universe;
         Alcotest.test_case "back-to-back sessions identical" `Quick
           check_back_to_back ]);
      ("solver",
       [ Alcotest.test_case "cache misses and bit-blasts bounded" `Quick
           check_solver_counts ]) ]
