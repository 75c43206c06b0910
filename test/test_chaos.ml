(* Chaos harness: deterministic fault injection against full sessions.

   Each test runs every corpus driver twice — fault-free, then with one
   chaos injection enabled — and pins the resilience contract: the
   session completes, the faults surface as quarantined engine incidents
   (never as session death), and the dynamic bug report is identical to
   the fault-free run. Injection points are counted on engine-owned
   atomics, so at jobs = 1 every run injects at exactly the same
   places; the jobs = 2 case checks the same contract where the crashed
   worker varies from run to run. *)

module Config = Ddt_core.Config
module Session = Ddt_core.Session
module Exec = Ddt_symexec.Exec
module Guard = Ddt_symexec.Guard
module Solver = Ddt_solver.Solver
module Report = Ddt_checkers.Report
module Corpus = Ddt_drivers.Corpus

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let quick_cfg (e : Corpus.entry) =
  let cfg = Corpus.config e in
  { cfg with Config.max_total_steps = 60_000; plateau_steps = 50_000 }

let run_with ?(jobs = 1) chaos e =
  let cfg = quick_cfg e in
  let cfg =
    { cfg with
      Config.exec_config = { cfg.Config.exec_config with Exec.jobs; chaos } }
  in
  (* Start every run from a cold query cache so the fault-free and the
     chaos run issue the same uncached solves (injections fire on
     uncached group solves). *)
  Solver.clear_cache ();
  Session.run cfg

let bug_keys (r : Session.result) =
  List.sort compare (List.map (fun b -> b.Report.b_key) r.Session.r_bugs)

(* One fault-free reference run per driver, shared by every test. *)
let baseline_tbl : (string, Session.result) Hashtbl.t = Hashtbl.create 8

let baseline (e : Corpus.entry) =
  match Hashtbl.find_opt baseline_tbl e.Corpus.short with
  | Some r -> r
  | None ->
      let r = run_with None e in
      Hashtbl.replace baseline_tbl e.Corpus.short r;
      r

let count_kind k (r : Session.result) =
  List.length
    (List.filter
       (fun (i : Report.incident) -> i.Guard.inc_kind = k)
       r.Session.r_incidents)

(* --- injected worker crashes ----------------------------------------------- *)

let test_worker_crashes () =
  let total_crashes = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      let base = baseline e in
      let chaos =
        run_with
          (Some
             { Guard.chaos_worker_crash_period = 25;
               chaos_solver_exhaust_period = 0 })
          e
      in
      check_bool (e.Corpus.short ^ " bug set unchanged by worker crashes")
        true
        (bug_keys base = bug_keys chaos);
      let crashes = count_kind Guard.Worker_crash chaos in
      total_crashes := !total_crashes + crashes;
      (* every injected crash is absorbed by the supervisor: one restart
         per crash incident, and the session still produced a report *)
      check_int (e.Corpus.short ^ " one restart per crash") crashes
        chaos.Session.r_stats.Exec.st_worker_restarts;
      check_bool (e.Corpus.short ^ " finished states nonzero") true
        (chaos.Session.r_finished_states > 0))
    Corpus.all;
  check_bool "crashes were actually injected somewhere" true
    (!total_crashes > 0)

(* Two workers: a crashed worker's loop is restarted while the other
   keeps picking (and steals from its queue), so every injected crash
   is still one restart and no path is lost. *)
let test_worker_crashes_two_jobs () =
  List.iter
    (fun short ->
      let e = Corpus.find short in
      let chaos =
        run_with ~jobs:2
          (Some
             { Guard.chaos_worker_crash_period = 25;
               chaos_solver_exhaust_period = 0 })
          e
      in
      check_bool (short ^ " -j 2 bug set equals the fault-free -j 1 run")
        true
        (bug_keys (baseline e) = bug_keys chaos);
      let crashes = count_kind Guard.Worker_crash chaos in
      check_bool (short ^ " crashes were injected") true (crashes > 0);
      check_int (short ^ " one restart per crash at -j 2") crashes
        chaos.Session.r_stats.Exec.st_worker_restarts)
    [ "rtl8029"; "pro100" ]

let test_crash_incident_has_replay () =
  let e = Corpus.find "rtl8029" in
  let chaos =
    run_with
      (Some
         { Guard.chaos_worker_crash_period = 25;
           chaos_solver_exhaust_period = 0 })
      e
  in
  let crashes =
    List.filter
      (fun (i : Report.incident) -> i.Guard.inc_kind = Guard.Worker_crash)
      chaos.Session.r_incidents
  in
  check_bool "at least one crash incident" true (crashes <> []);
  List.iter
    (fun (i : Report.incident) ->
      check_bool "incident names its entry point" true
        (i.Guard.inc_replay.Ddt_trace.Replay.rs_entry <> ""))
    crashes

(* --- injected solver budget exhaustion ------------------------------------- *)

let test_solver_exhaustion () =
  let total_retries = ref 0 in
  let total_incidents = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      let base = baseline e in
      let chaos =
        run_with
          (Some
             { Guard.chaos_worker_crash_period = 0;
               chaos_solver_exhaust_period = 3 })
          e
      in
      check_bool (e.Corpus.short ^ " bug set unchanged by solver exhaustion")
        true
        (bug_keys base = bug_keys chaos);
      let sv = chaos.Session.r_stats.Exec.st_solver in
      (* a forced first-attempt Unknown must never become a final verdict:
         every exhaustion is retried *)
      check_bool (e.Corpus.short ^ " every exhaustion retried") true
        (sv.Solver.s_retries >= sv.Solver.s_exhaustions
         || sv.Solver.s_retry_recovered > 0);
      total_retries := !total_retries + sv.Solver.s_retries;
      total_incidents := !total_incidents + count_kind Guard.Solver_exhaustion chaos)
    Corpus.all;
  check_bool "escalated retries were issued" true (!total_retries > 0);
  check_bool "exhaustions surfaced as incidents" true (!total_incidents > 0)

(* --- everything at once ---------------------------------------------------- *)

let test_combined () =
  List.iter
    (fun (e : Corpus.entry) ->
      let base = baseline e in
      let chaos =
        run_with
          (Some
             { Guard.chaos_worker_crash_period = 25;
               chaos_solver_exhaust_period = 3 })
          e
      in
      check_bool (e.Corpus.short ^ " bug set unchanged under combined chaos")
        true
        (bug_keys base = bug_keys chaos);
      check_bool (e.Corpus.short ^ " session produced a report") true
        (chaos.Session.r_finished_states > 0))
    Corpus.all

let () =
  Alcotest.run "ddt_chaos"
    [ ("worker-crash",
       [ Alcotest.test_case "bug sets identical, crashes absorbed" `Quick
           test_worker_crashes;
         Alcotest.test_case "-j 2: bug sets identical, crashes absorbed"
           `Quick
           test_worker_crashes_two_jobs;
         Alcotest.test_case "crash incidents carry a replay" `Quick
           test_crash_incident_has_replay ]);
      ("solver-exhaustion",
       [ Alcotest.test_case "bug sets identical, retries recover" `Quick
           test_solver_exhaustion ]);
      ("combined",
       [ Alcotest.test_case "all injections at once" `Quick test_combined ]) ]
